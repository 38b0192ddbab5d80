package aeu

// Tests for the AEU side of the zero-allocation hot path: deferred
// commands must be clones (never aliases of reused scratch or zero-copy
// views), retained scan bounds must be cloned out of the caller's buffer,
// and the steady-state serve path must not allocate.

import (
	"testing"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// TestDeferredUpsertClonedFromScratch defers an upsert for a pending
// range, then stomps the classification and processing scratch with an
// unrelated large group; the deferred payload must survive untouched and
// apply correctly once the transfer lands.
func TestDeferredUpsertClonedFromScratch(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a1 := h.aeus[1]
	// AEU 1 is granted [400,499]; the data has not arrived yet.
	a1.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{
			Epoch: 3, NewLo: 400, NewHi: 999,
			Fetches: []command.Fetch{{From: 0, Lo: 400, Hi: 499}},
		},
	})
	pendKVs := []prefixtree.KV{{Key: 450, Value: 7}, {Key: 460, Value: 8}}
	a1.classify(command.Command{
		Op: command.OpUpsert, Object: uint32(testObj), Source: 1,
		ReplyTo: command.NoReply, KVs: pendKVs,
	})
	a1.processGroups()
	if got := len(a1.deferred); got != 1 {
		t.Fatalf("deferred commands = %d, want 1", got)
	}
	// Stomp the scratch: a big in-range upsert group reuses the same
	// validKVs/group buffers the deferred command must not alias.
	stomp := make([]prefixtree.KV, 64)
	for i := range stomp {
		stomp[i] = prefixtree.KV{Key: 500 + uint64(i), Value: 0xdead}
	}
	a1.classify(command.Command{
		Op: command.OpUpsert, Object: uint32(testObj), Source: 1,
		ReplyTo: command.NoReply, KVs: stomp,
	})
	a1.processGroups()
	def := a1.deferred[0]
	if len(def.KVs) != 2 || def.KVs[0] != pendKVs[0] || def.KVs[1] != pendKVs[1] {
		t.Fatalf("deferred KVs corrupted by scratch reuse: %+v", def.KVs)
	}
	// Let the transfer land and the deferred upsert apply.
	a1.Outbox().Flush()
	h.step(0)
	h.step(1)
	h.step(1)
	if v, ok := lookupOne(a1.Partition(testObj).Tree, a1.Core, 450); !ok || v != 7 {
		t.Fatalf("deferred upsert lost: (%d,%v)", v, ok)
	}
	if v, ok := lookupOne(a1.Partition(testObj).Tree, a1.Core, 460); !ok || v != 8 {
		t.Fatalf("deferred upsert lost: (%d,%v)", v, ok)
	}
}

// TestDeferredLookupClonedFromGroup is the lookup twin: the deferred key
// list must not alias the recycled group batch.
func TestDeferredLookupClonedFromGroup(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a1 := h.aeus[1]
	a1.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{
			Epoch: 3, NewLo: 400, NewHi: 999,
			Fetches: []command.Fetch{{From: 0, Lo: 400, Hi: 499}},
		},
	})
	a1.classify(command.Command{
		Op: command.OpLookup, Object: uint32(testObj), Source: 1,
		ReplyTo: command.NoReply, Keys: []uint64{450, 460},
	})
	a1.processGroups()
	// Recycled group batches now serve an unrelated lookup group.
	stomp := make([]uint64, 64)
	for i := range stomp {
		stomp[i] = 500 + uint64(i)
	}
	a1.classify(command.Command{
		Op: command.OpLookup, Object: uint32(testObj), Source: 1,
		ReplyTo: command.NoReply, Keys: stomp,
	})
	a1.processGroups()
	if got := len(a1.deferred); got != 1 {
		t.Fatalf("deferred commands = %d, want 1", got)
	}
	def := a1.deferred[0]
	if len(def.Keys) != 2 || def.Keys[0] != 450 || def.Keys[1] != 460 {
		t.Fatalf("deferred keys corrupted by group recycling: %v", def.Keys)
	}
}

// TestScanBoundsClonedFromCallerBuffer retains a range scan whose bounds
// arrive in a caller-owned buffer (as zero-copy decode hands them out),
// mutates the buffer before processing, and asserts the scan still uses
// the original bounds.
func TestScanBoundsClonedFromCallerBuffer(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a0 := h.aeus[0]
	p := a0.Partition(testObj)
	for k := p.Lo; k <= p.Hi; k++ {
		p.Tree.Upsert(a0.Core, k, k, 1)
	}
	var got []prefixtree.KV
	a0.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
		got = append(got, kvs...)
	})
	bounds := []uint64{410, 420}
	a0.classify(command.Command{
		Op: command.OpScan, Object: uint32(testObj), Source: 0,
		ReplyTo: ClientReply, Tag: 1, Pred: colstore.Predicate{Op: colstore.All},
		Keys: bounds,
	})
	// The decoder reuses its buffer for the next command; simulate that by
	// clobbering the caller's slice before the group is processed.
	bounds[0], bounds[1] = 999, 999
	a0.processGroups()
	if len(got) != 2 { // {matched, sum} plus the coverage interval
		t.Fatalf("results = %+v", got)
	}
	if got[0].Key != 11 { // matched count over [410,420]
		t.Fatalf("scan matched %d keys, want 11 (bounds not cloned?)", got[0].Key)
	}
	if got[1].Key != 410 || got[1].Value != 420 {
		t.Fatalf("coverage = [%d, %d], want [410, 420]", got[1].Key, got[1].Value)
	}
}

// TestServePathSteadyStateAllocs is the allocation regression guard for
// the drain → classify → process path: after warm-up, serving a coalesced
// lookup group, an upsert group and a shared column-scan group must not
// allocate (the per-scan aggregate slots live in per-AEU scratch).
func TestServePathSteadyStateAllocs(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1<<14)
	a0 := h.aeus[0]
	const colObj routing.ObjectID = 2
	pc, err := a0.AddColumnPartition(colObj, colstore.Config{ChunkEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.router.RegisterSize(colObj, []uint32{0}); err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, 512)
	for i := range vals {
		vals[i] = uint64(i)
	}
	pc.Col.Append(a0.Core, vals)
	src := h.aeus[1].Outbox()
	keys := make([]uint64, 64)
	kvs := make([]prefixtree.KV, 64)
	for i := range keys {
		keys[i] = uint64(i*61) % (1 << 13) // all owned by AEU 0
		kvs[i] = prefixtree.KV{Key: keys[i], Value: uint64(i)}
	}
	run := func() {
		src.RouteLookup(testObj, keys, command.NoReply, 0, 0)
		src.RouteUpsert(testObj, kvs, command.NoReply, 0, 0)
		// Shared pass covering every block verdict: zone-map pruning,
		// full-accept and evaluation all run per cycle, and the two
		// identical predicates share one kernel run.
		src.RouteScan(colObj, colstore.Predicate{Op: colstore.Less, Operand: 100}, command.NoReply, 0)
		src.RouteScan(colObj, colstore.Predicate{Op: colstore.Less, Operand: 100}, command.NoReply, 0)
		src.RouteScan(colObj, colstore.Predicate{Op: colstore.Greater, Operand: 500}, command.NoReply, 0)
		src.RouteScan(colObj, colstore.Predicate{Op: colstore.Equal, Operand: 300}, command.NoReply, 0)
		src.RouteScan(colObj, colstore.Predicate{Op: colstore.Between, Operand: 128, High: 400}, command.NoReply, 0)
		src.RouteScan(colObj, colstore.Predicate{Op: colstore.All}, command.NoReply, 0)
		src.Flush()
		h.router.Drain(a0.ID, a0.classify)
		a0.processGroups()
	}
	// Warm-up must wrap the full multicast ring: each of its 1024 slots
	// allocates its encode buffer on first use, and scans advance the ring
	// by one slot per routed command.
	for i := 0; i < 300; i++ {
		run()
	}
	scanned, pruned, full := a0.colBlocksScanned.Load(), a0.colBlocksPruned.Load(), a0.colBlocksFullHit.Load()
	run()
	if a0.colBlocksScanned.Load() == scanned || a0.colBlocksPruned.Load() == pruned || a0.colBlocksFullHit.Load() == full {
		t.Fatal("a serve cycle did not evaluate, prune and fully accept blocks")
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("serve path allocates %.1f times per cycle, want 0", avg)
	}
}
