package core

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"eris/internal/aeu"
	"eris/internal/command"
	"eris/internal/durable"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
	"eris/internal/workload"
)

// parksOf reads aeu.<id>.parks for every AEU of e.
func parksOf(e *Engine) []int64 {
	snap := e.MetricsSnapshot()
	out := make([]int64, e.NumAEUs())
	for i := range out {
		out[i] = snap.Counter("aeu." + strconv.Itoa(i) + ".parks")
	}
	return out
}

// waitAllParked blocks until every AEU has parked at least once more than
// in since: with no work anywhere that means every loop is in its
// park-timeout-park cycle, blocked far more often than not.
func waitAllParked(t *testing.T, e *Engine, since []int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		idle := true
		for i, p := range parksOf(e) {
			if p <= since[i] {
				idle = false
			}
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not every AEU parked within 10s: parks %v (before: %v)", parksOf(e), since)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStopWithEveryAEUParked: Stop and CrashStop must return promptly when
// every loop is blocked on its inbox, and leave no goroutine behind — AEU
// loops, log writers, the checkpoint ticker.
func TestStopWithEveryAEUParked(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(e *Engine)
	}{
		{"stop", (*Engine).Stop},
		{"crash_stop", (*Engine).CrashStop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			mgr, err := durable.Open(durable.Options{Dir: t.TempDir(), SyncWrites: true})
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Config{
				Topology: topology.SingleNode(8), Durable: mgr,
				CheckpointEvery: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.CreateIndex(idxObj, 1<<12); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			waitAllParked(t, e, make([]int64, e.NumAEUs()))

			stopped := make(chan struct{})
			go func() { tc.stop(e); close(stopped) }()
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("engine with every AEU parked did not stop within 10s")
			}
			mgr.Close()

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("goroutines leaked: %d at baseline, %d now\n%s",
						baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestStopSettlesFullInboxQuickly: the loops exit with every AEU but the last
// holding a nearly full inbox of writes whose keys the last one owns, so the
// settle rounds forward five inboxes' worth into one. A producer finding the
// target's buffer full spills to its overflow queue instead of waiting for
// the target to drain, so Stop takes milliseconds although the rounds settle
// one AEU at a time (when producers waited, that took a minute on 2 vCPUs).
func TestStopSettlesFullInboxQuickly(t *testing.T) {
	const (
		workers    = 6
		domain     = 1 << 16
		inbox      = 32 << 10
		perCmd     = 200
		cmdsPerAEU = 9 // 9 x 200 x 16 B = 28.1 KiB of payload per producer
	)
	e, err := New(Config{
		Topology: topology.SingleNode(workers),
		Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
		Routing:  routing.Config{InBufBytes: inbox},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// End the loops the way Stop does, then leave work behind them.
	for _, a := range e.aeus {
		a.Stop()
	}
	e.wg.Wait()
	target := uint32(workers - 1)
	key := uint64(domain) - 1 // the target's keys, from the top down
	for src := uint32(0); src < target; src++ {
		for c := 0; c < cmdsPerAEU; c++ {
			kvs := make([]prefixtree.KV, perCmd)
			for i := range kvs {
				kvs[i] = prefixtree.KV{Key: key, Value: key + 1}
				key--
			}
			e.router.Inject(src, &command.Command{
				Op: command.OpUpsert, Object: uint32(idxObj), Source: src,
				ReplyTo: command.NoReply, KVs: kvs,
			})
		}
	}
	if got := e.router.Owner(idxObj, key+1); got != target {
		t.Fatalf("key %d belongs to aeu %d, want every injected key on aeu %d", key+1, got, target)
	}

	start := time.Now()
	e.Stop()
	took := time.Since(start)
	const want = (workers - 1) * cmdsPerAEU * perCmd
	if got := e.aeus[target].Partition(idxObj).Tree.Count(); got != want {
		t.Fatalf("target holds %d tuples after Stop, want all %d forwarded", got, want)
	}
	if took > time.Second {
		t.Fatalf("Stop took %v settling %d forwarded tuples into one %d KiB inbox, want < 1s", took, want, inbox>>10)
	}
}

// TestLiveGeneratorKeepsEveryAEUPolling: the skew barrier gates generation
// on the slowest clock, so while any generator in the engine lives no AEU
// may park — not even one whose own generator is exhausted — or the run
// would crawl at one park timeout per idle step. One AEU's workload ends
// almost at once, the others' never does; the virtual wait must complete
// as before and nobody may have parked.
func TestLiveGeneratorKeepsEveryAEUPolling(t *testing.T) {
	e := newEngine(t, topology.SingleNode(4))
	defer e.Stop()
	const domain = 1 << 14
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(idxObj, domain, nil); err != nil {
		t.Fatal(err)
	}
	e.SetGenerators(func(i int) aeu.Generator {
		g := &LookupGenerator{
			Object: idxObj, Keys: workload.Uniform{Domain: domain},
			Batch: 32, DurationSec: 3600,
		}
		if i == 0 {
			g.DurationSec = 0.0001
		}
		return g
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.WaitVirtual(0.003, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Logf("0.003 virtual seconds took %v", time.Since(start))
	for i, p := range parksOf(e) {
		if p != 0 {
			t.Errorf("aeu %d parked %d times while generators were live", i, p)
		}
	}
}
