package core

import (
	"runtime"
	"testing"
	"time"

	"eris/internal/command"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// within runs body on its own goroutine and fails the test, with every
// goroutine's stack, if body has not returned after d: a producer that waits
// on a peer fails the test instead of hanging it. body must not call
// t.Fatal.
func within(t *testing.T, d time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("still running after %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// injectStripes gives each of e's AEUs, as a stale client's upserts, every
// key of [0, domain) congruent to its id modulo the AEU count, with value
// key+1, in commands of perCmd keys. Three quarters of each AEU's keys (on
// four AEUs) belong to its peers, so its first Step forwards them.
func injectStripes(e *Engine, domain uint64, perCmd int) {
	n := uint64(len(e.aeus))
	for src := range e.aeus {
		var kvs []prefixtree.KV
		for k := uint64(src); k < domain; k += n {
			kvs = append(kvs, prefixtree.KV{Key: k, Value: k + 1})
			if len(kvs) == perCmd || k+n >= domain {
				e.router.Inject(uint32(src), &command.Command{
					Op: command.OpUpsert, Object: uint32(idxObj), Source: uint32(src),
					ReplyTo: command.NoReply, KVs: kvs,
				})
				kvs = nil
			}
		}
	}
}

// checkPlaced asserts that every key of [0, domain) is held, with value
// key+1, by the AEU the routing table names as its owner.
func checkPlaced(t *testing.T, e *Engine, domain uint64) {
	t.Helper()
	var total int64
	for _, a := range e.aeus {
		total += a.Partition(idxObj).Tree.Count()
	}
	if uint64(total) != domain {
		t.Errorf("AEUs hold %d tuples, want %d", total, domain)
	}
	var value [1]uint64
	var found [1]bool
	for k := uint64(0); k < domain; k++ {
		owner := e.router.Owner(idxObj, k)
		e.aeus[owner].Partition(idxObj).Tree.LookupBatch(0, []uint64{k}, value[:], found[:])
		if !found[0] || value[0] != k+1 {
			t.Fatalf("key %d on its owner aeu %d: value %d found %v, want %d", k, owner, value[0], found[0], k+1)
		}
	}
}

// TestRoundRobinStepsForwardIntoFullInboxes: one goroutine steps four AEUs
// in turn, each forwarding three quarters of its injected upserts to the
// others through 1 KiB inboxes that hold four of its 256-byte chunks. No
// Step may wait for a peer to drain — on one goroutine that peer cannot run
// — so the steps finish, and every tuple ends on its owner.
func TestRoundRobinStepsForwardIntoFullInboxes(t *testing.T) {
	const domain = 1 << 13
	e, err := New(Config{
		Topology: topology.SingleNode(4),
		Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
		Routing:  routing.Config{InBufBytes: 1 << 10, OutBufBytes: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	quiet := false
	within(t, 10*time.Second, func() {
		injectStripes(e, domain, 128)
		for round := 0; round < 1000 && !quiet; round++ {
			quiet = true
			for _, a := range e.aeus {
				if a.Step() {
					quiet = false
				}
			}
		}
	})
	if !quiet {
		t.Fatal("AEUs still busy after 1000 rounds")
	}
	checkPlaced(t, e, domain)
}

// TestStopWhileForwardingIntoFullInboxes: running AEUs each forward 12 Ki
// upserts to their peers through 8 KiB inboxes, so every one of them flushes
// into inboxes its busy peers have not drained. Stop must not wait for
// those forwards to trickle in: it returns within 1 s, and the settle
// rounds leave every tuple on its owner.
func TestStopWhileForwardingIntoFullInboxes(t *testing.T) {
	const domain = 1 << 16
	e, err := New(Config{
		Topology: topology.SingleNode(4),
		Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
		Routing:  routing.Config{InBufBytes: 8 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	injectStripes(e, domain, domain)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var took time.Duration
	within(t, 30*time.Second, func() {
		// Stop once every AEU has flushed part of its forward.
		for i := range e.aeus {
			for e.router.Outbox(uint32(i)).Stats().Flushes == 0 {
				runtime.Gosched()
			}
		}
		start := time.Now()
		e.Stop()
		took = time.Since(start)
	})
	if took > time.Second {
		t.Fatalf("Stop took %v while AEUs forwarded into full inboxes, want < 1s", took)
	}
	checkPlaced(t, e, domain)
}
