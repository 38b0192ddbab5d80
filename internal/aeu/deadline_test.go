package aeu

// Tests for command deadlines at the AEU: commands deferred across a
// rebalance cycle expire instead of retrying forever, and definitive
// failures (expiry, unserved ops) are answered, never silently dropped.

import (
	"errors"
	"testing"
	"time"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

type capturedResult struct {
	tag      uint64
	answered int
	err      error
}

// captureResults installs a client callback on a and returns the capture
// slice pointer.
func captureResults(a *AEU) *[]capturedResult {
	var got []capturedResult
	a.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
		got = append(got, capturedResult{tag: tag, answered: answered, err: err})
	})
	return &got
}

// pendBalance grants AEU a the range [400,499] whose data never arrives,
// so commands for it are deferred indefinitely.
func pendBalance(a *AEU) {
	a.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{
			Epoch: 3, NewLo: 400, NewHi: 999,
			Fetches: []command.Fetch{{From: 0, Lo: 400, Hi: 499}},
		},
	})
}

// TestDeferredCommandExpiresOnSweep parks a deadline-carrying lookup in
// the deferred queue behind a transfer that never completes; the periodic
// sweep must answer it with ErrExpired instead of leaving the client
// waiting on the wedged epoch.
func TestDeferredCommandExpiresOnSweep(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a1 := h.aeus[1]
	got := captureResults(a1)
	pendBalance(a1)

	past := uint64(time.Now().Add(-time.Millisecond).UnixNano())
	a1.classify(command.Command{
		Op: command.OpLookup, Object: uint32(testObj), Source: 1,
		ReplyTo: ClientReply, Tag: 9, Keys: []uint64{450, 460}, Deadline: past,
	})
	a1.processGroups()
	if len(a1.deferred) != 1 {
		t.Fatalf("deferred = %d, want 1", len(a1.deferred))
	}
	if d := a1.deferred[0].Deadline; d != past {
		t.Fatalf("deferred command lost its deadline: %d, want %d", d, past)
	}

	a1.expireDeferred()
	if len(a1.deferred) != 0 {
		t.Fatalf("expired command still deferred: %d", len(a1.deferred))
	}
	if len(*got) != 1 {
		t.Fatalf("results = %+v", *got)
	}
	r := (*got)[0]
	if r.tag != 9 || r.answered != 2 || !errors.Is(r.err, ErrExpired) {
		t.Fatalf("expiry reply = %+v", r)
	}
	if n := a1.expired.Load(); n != 1 {
		t.Fatalf("aeu expired counter = %d", n)
	}
}

// TestDeferredCommandExpiresOnRequeue covers the other expiry path: the
// transfer completes, the deferred command is requeued, but its deadline
// passed while it was parked — the requeue drain must expire it rather
// than execute it.
func TestDeferredCommandExpiresOnRequeue(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a1 := h.aeus[1]
	got := captureResults(a1)
	pendBalance(a1)

	past := uint64(time.Now().Add(-time.Millisecond).UnixNano())
	a1.classify(command.Command{
		Op: command.OpUpsert, Object: uint32(testObj), Source: 1,
		ReplyTo: ClientReply, Tag: 4, Deadline: past,
		KVs: []prefixtree.KV{{Key: 450, Value: 1}},
	})
	a1.processGroups()
	if len(a1.deferred) != 1 {
		t.Fatalf("deferred = %d, want 1", len(a1.deferred))
	}

	// The transfer lands: deferred work moves to the requeue...
	a1.Outbox().Flush()
	h.step(0)
	h.step(1)
	// ...and the drain expires it instead of applying the stale write.
	a1.drainRequeue()
	a1.processGroups()
	if len(*got) != 1 || !errors.Is((*got)[0].err, ErrExpired) {
		t.Fatalf("results = %+v", *got)
	}
	if v, ok := a1.Partition(testObj).Tree.Lookup(a1.Core, 450, 1); ok {
		t.Fatalf("expired upsert was applied: value %d", v)
	}
}

// TestLiveDeadlineSurvivesDeferral is the non-expired control: a deferred
// command whose deadline is still in the future executes normally once
// the transfer lands.
func TestLiveDeadlineSurvivesDeferral(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a1 := h.aeus[1]
	got := captureResults(a1)
	pendBalance(a1)

	future := uint64(time.Now().Add(time.Hour).UnixNano())
	a1.classify(command.Command{
		Op: command.OpUpsert, Object: uint32(testObj), Source: 1,
		ReplyTo: ClientReply, Tag: 4, Deadline: future,
		KVs: []prefixtree.KV{{Key: 450, Value: 7}},
	})
	a1.processGroups()
	a1.expireDeferred()
	if len(a1.deferred) != 1 {
		t.Fatalf("live deferred command swept: %d", len(a1.deferred))
	}
	a1.Outbox().Flush()
	h.step(0)
	h.step(1)
	a1.drainRequeue()
	a1.processGroups()
	if len(*got) != 1 || (*got)[0].err != nil {
		t.Fatalf("results = %+v", *got)
	}
	if v, ok := a1.Partition(testObj).Tree.Lookup(a1.Core, 450, 1); !ok || v != 7 {
		t.Fatalf("deferred upsert lost: (%d,%v)", v, ok)
	}
}

// TestForwardKeepsDeadline sends each point op, carrying a deadline, to an
// AEU whose partition does not cover its keys: the command forwarded to the
// owner must keep the issuer's op, reply address, tag and deadline, so the
// owner can still expire it and answer the right request.
func TestForwardKeepsDeadline(t *testing.T) {
	future := uint64(time.Now().Add(time.Hour).UnixNano())
	for _, tc := range []struct {
		name string
		cmd  command.Command
	}{
		{"lookup", command.Command{Op: command.OpLookup, Keys: []uint64{10, 20}}},
		{"delete", command.Command{Op: command.OpDelete, Keys: []uint64{10, 20}}},
		{"upsert", command.Command{Op: command.OpUpsert, KVs: []prefixtree.KV{{Key: 10, Value: 1}, {Key: 20, Value: 2}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, topology.SingleNode(2), 2, 1000)
			a1 := h.aeus[1] // owns [500, 999]; keys 10 and 20 belong to AEU 0
			c := tc.cmd
			c.Object, c.Source, c.ReplyTo, c.Tag, c.Deadline = uint32(testObj), 1, ClientReply, 9, future
			a1.classify(c)
			a1.processGroups()
			a1.Outbox().Flush()
			if n := a1.forwards.Load(); n != 2 {
				t.Fatalf("forwards = %d, want 2", n)
			}

			var got []command.Command
			h.router.Drain(0, func(c command.Command) { got = append(got, c.Clone()) })
			if len(got) != 1 {
				t.Fatalf("owner received %d commands, want 1", len(got))
			}
			f := got[0]
			if f.Op != c.Op || f.ReplyTo != ClientReply || f.Tag != 9 || f.Deadline != future {
				t.Fatalf("forwarded %v: replyTo %d tag %d deadline %d, want %v: %d %d %d",
					f.Op, f.ReplyTo, f.Tag, f.Deadline, c.Op, ClientReply, 9, future)
			}
			if len(f.Keys)+len(f.KVs) != 2 {
				t.Fatalf("forwarded batch lost members: keys %v kvs %v", f.Keys, f.KVs)
			}
		})
	}
}

// TestMixedDeadlineGroupExpiresOnlyCarriers sends two NoReply upserts from
// different sources: one carries an already passed deadline, the other
// none. After deferral across a transfer only the deadline-carrying one
// may expire (the bug: a coalesced batch carried the earliest non-zero
// deadline of its members, so the deadline-free write expired with it and
// was silently lost).
func TestMixedDeadlineGroupExpiresOnlyCarriers(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a1 := h.aeus[1]
	pendBalance(a1)

	past := uint64(time.Now().Add(-time.Millisecond).UnixNano())
	a1.classify(command.Command{
		Op: command.OpUpsert, Object: uint32(testObj), Source: 0,
		ReplyTo: command.NoReply,
		KVs:     []prefixtree.KV{{Key: 450, Value: 7}},
	})
	a1.classify(command.Command{
		Op: command.OpUpsert, Object: uint32(testObj), Source: 1,
		ReplyTo: command.NoReply, Deadline: past,
		KVs: []prefixtree.KV{{Key: 460, Value: 9}},
	})
	// NoReply zeroes tag and source in the group key, but the deadline
	// stays in it: commands with different deadlines never share a group.
	if len(a1.order) != 2 {
		t.Fatalf("groups = %d, want 2 per-deadline groups", len(a1.order))
	}
	a1.processGroups()
	// Both keys sit in the pending range: they must be deferred as two
	// commands with their own deadlines, not one merged one.
	if len(a1.deferred) != 2 {
		t.Fatalf("deferred = %d, want 2 per-deadline commands", len(a1.deferred))
	}

	// The transfer lands and the requeue drain runs: the deadline-free
	// write applies, the expired one is dropped and counted.
	a1.Outbox().Flush()
	h.step(0)
	h.step(1)
	a1.drainRequeue()
	a1.processGroups()
	if v, ok := a1.Partition(testObj).Tree.Lookup(a1.Core, 450, 1); !ok || v != 7 {
		t.Fatalf("deadline-free write lost to a batchmate's deadline: (%d,%v)", v, ok)
	}
	if _, ok := a1.Partition(testObj).Tree.Lookup(a1.Core, 460, 1); ok {
		t.Fatal("expired upsert was applied")
	}
	if n := a1.expired.Load(); n != 1 {
		t.Fatalf("expired counter = %d, want 1", n)
	}
}

// TestUnknownOpAnswered sends a data command with an op this loop does not
// serve; a requester waiting on it must get an error reply instead of a
// silent drop (the bug: the default branch only counted and dropped).
func TestUnknownOpAnswered(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a0 := h.aeus[0]
	got := captureResults(a0)

	a0.classify(command.Command{
		Op: command.Op(200), Object: uint32(testObj), Source: 0,
		ReplyTo: ClientReply, Tag: 11, Keys: []uint64{1, 2, 3},
	})
	if len(*got) != 1 {
		t.Fatalf("results = %+v", *got)
	}
	r := (*got)[0]
	if r.tag != 11 || r.answered != 3 || r.err == nil {
		t.Fatalf("unknown-op reply = %+v", r)
	}
	if n := a0.ctrlErrors.Load(); n != 1 {
		t.Fatalf("ctrl_errors = %d", n)
	}

	// Without a reply address the drop stays silent — only the counter moves.
	a0.classify(command.Command{
		Op: command.Op(200), Object: uint32(testObj), Source: 0,
		ReplyTo: command.NoReply,
	})
	if len(*got) != 1 {
		t.Fatalf("NoReply unknown op was answered: %+v", *got)
	}
	if n := a0.ctrlErrors.Load(); n != 2 {
		t.Fatalf("ctrl_errors = %d", n)
	}
}

// TestNoCoalesceSplitsScanGroups checks the ablation switch applies to
// scans: with NoCoalesce every scan command forms its own group and runs
// its own partition pass (the bug: only lookup/upsert/delete groups were
// split, so the ablation under-reported uncoalesced scan cost).
func TestNoCoalesceSplitsScanGroups(t *testing.T) {
	for _, tc := range []struct {
		name       string
		noCoalesce bool
		wantGroups int
	}{
		{"coalesced", false, 1},
		{"split", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			machine, err := numasim.New(topology.SingleNode(2), numasim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			mems := mem.NewSystem(machine)
			router, err := routing.New(machine, mems, 2, routing.Config{})
			if err != nil {
				t.Fatal(err)
			}
			a0 := New(router, mems, 0, Config{NoCoalesce: tc.noCoalesce})
			a1 := New(router, mems, 1, Config{NoCoalesce: tc.noCoalesce})
			RegisterPeers([]*AEU{a0, a1})
			const col routing.ObjectID = 2
			p0, err := a0.AddColumnPartition(col, colstore.Config{ChunkEntries: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := router.RegisterSize(col, []uint32{0}); err != nil {
				t.Fatal(err)
			}
			vals := make([]uint64, 100)
			for i := range vals {
				vals[i] = uint64(i)
			}
			p0.Col.Append(0, vals)

			got := map[uint64]prefixtree.KV{}
			a0.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
				got[tag] = kvs[0]
			})
			ob := a1.Outbox()
			ob.RouteScan(col, colstore.Predicate{Op: colstore.Less, Operand: 10}, ClientReply, 1)
			ob.RouteScan(col, colstore.Predicate{Op: colstore.Greater, Operand: 89}, ClientReply, 2)
			ob.RouteScan(col, colstore.Predicate{Op: colstore.All}, ClientReply, 3)
			ob.Flush()
			router.Drain(0, a0.classify)
			if len(a0.order) != tc.wantGroups {
				t.Fatalf("scan groups = %d, want %d", len(a0.order), tc.wantGroups)
			}
			a0.processGroups()
			// Group shape must not change the answers.
			if got[1].Key != 10 || got[2].Key != 10 || got[3].Key != 100 {
				t.Fatalf("scan results = %+v", got)
			}
		})
	}
}
