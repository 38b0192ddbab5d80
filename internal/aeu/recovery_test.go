package aeu

// Deterministic regression tests for the lost-balance recovery machinery:
// reconcile adoption marking granted-but-never-transferred ranges as
// recovering, the peer-walk repair probes that pull the orphaned tuples
// back, and the authority rules that decide which transfers may confirm a
// range. The chaos suite exercises the same paths under random faults;
// these tests pin the exact state transitions so a refactor that weakens
// one of them fails here with a readable story instead of a rare
// linearizability violation.

import (
	"sync"
	"testing"

	"eris/internal/command"
	"eris/internal/csbtree"
	"eris/internal/faults"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// settleAll runs Settle rounds over every AEU until a full round does no
// work (or the round budget runs out — deterministic tests should converge
// in a handful of sweeps).
func (h *harness) settleAll(t *testing.T, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		busy := false
		for _, a := range h.aeus {
			if a.Settle() {
				busy = true
			}
		}
		if !busy {
			return
		}
	}
	t.Fatalf("settleAll: still busy after %d rounds", rounds)
}

// repairs returns a's awaited ranges with no balance fetch outstanding
// (epoch == 0): the ones the repair walk is responsible for.
func repairs(a *AEU) []awaitedRange {
	var out []awaitedRange
	for _, r := range a.awaited {
		if r.epoch == 0 {
			out = append(out, r)
		}
	}
	return out
}

// seed upserts kvs through the routing layer and lets every AEU absorb them.
func (h *harness) seed(t *testing.T, kvs []prefixtree.KV) {
	t.Helper()
	h.aeus[0].Outbox().RouteUpsert(testObj, kvs, command.NoReply, 0, 0)
	h.aeus[0].Outbox().Flush()
	h.settleAll(t, 20)
}

// TestReconcileRepairHealsLostBalance replays the failure the chaos suite
// kept finding before the repair machinery existed: the balancer updates
// the routing table and shrinks the source, but the OpBalance granting
// [250,299] to AEU 1 is lost. AEU 1 must (a) adopt the table bounds via
// reconciliation, (b) defer lookups for the granted range instead of
// serving misses, and (c) walk its peers with probe fetches until the
// orphaned tuples are extracted from AEU 0 and linked locally.
func TestReconcileRepairHealsLostBalance(t *testing.T) {
	h := newHarness(t, topology.SingleNode(3), 3, 900)
	kvs := make([]prefixtree.KV, 0, 50)
	for k := uint64(250); k < 300; k++ {
		kvs = append(kvs, prefixtree.KV{Key: k, Value: k * 7})
	}
	h.seed(t, kvs)
	if got := h.aeus[0].Partition(testObj).Tree.Count(); got != 50 {
		t.Fatalf("seed landed %d keys on aeu0, want 50", got)
	}

	var mu sync.Mutex
	var results []prefixtree.KV
	for _, a := range h.aeus {
		a.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
			mu.Lock()
			results = append(results, kvs...)
			mu.Unlock()
		})
	}

	// The balancer's view: [250,299] moves from AEU 0 to AEU 1. Tables
	// update first, the source processes its shrink, and the target's
	// OpBalance (with the fetch list) is eaten by a fault.
	if err := h.router.UpdateRange(testObj, []csbtree.Entry{
		{Low: 0, Owner: 0}, {Low: 250, Owner: 1}, {Low: 600, Owner: 2},
	}); err != nil {
		t.Fatal(err)
	}
	h.aeus[0].handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj), Source: 0,
		Balance: &command.Balance{Epoch: 1, NewLo: 0, NewHi: 249},
	})

	// Reconciliation needs two sweeps observing the same table bounds
	// before adopting; run them one at a time so we can catch the moment
	// the recovering range exists but no probe answered yet.
	a1 := h.aeus[1]
	for i := 0; i < 10 && len(repairs(a1)) == 0; i++ {
		a1.Settle()
	}
	if len(repairs(a1)) != 1 {
		t.Fatalf("recovering = %+v, want one entry after adoption", repairs(a1))
	}
	if r := repairs(a1)[0]; r.lo != 250 || r.hi != 299 || r.from != 0 {
		t.Fatalf("recovering = %+v, want [250,299] from aeu0", r)
	}
	if p := a1.Partition(testObj); p.Lo != 250 || p.Hi != 599 {
		t.Fatalf("aeu1 bounds [%d,%d], want adopted [250,599]", p.Lo, p.Hi)
	}

	// A lookup for the recovering range must be deferred, not answered
	// from the still-empty tree.
	a1.Outbox().RouteLookup(testObj, []uint64{260}, ClientReply, 1, 0)
	a1.Outbox().Flush()
	a1.Settle()
	mu.Lock()
	if len(results) != 0 {
		t.Fatalf("lookup answered during recovery: %+v", results)
	}
	mu.Unlock()

	// Let the probe walk run: AEU 0's bounds no longer cover the range, so
	// its transfer is non-authoritative; the walk must still complete (all
	// peers probed, all payloads landed) and then release the deferred
	// lookup.
	h.settleAll(t, 50)
	mu.Lock()
	defer mu.Unlock()
	if len(results) != 1 || results[0].Key != 260 || results[0].Value != 260*7 {
		t.Fatalf("deferred lookup results = %+v, want key 260 value %d", results, 260*7)
	}
	if len(repairs(a1)) != 0 {
		t.Fatalf("recovering not cleared: %+v", repairs(a1))
	}
	if got := a1.repairs.Load(); got != 1 {
		t.Fatalf("repairs counter = %d, want 1", got)
	}
	if got := a1.Partition(testObj).Tree.Count(); got != 50 {
		t.Fatalf("aeu1 tree count = %d, want the 50 repaired keys", got)
	}
	if got := h.aeus[0].Partition(testObj).Tree.Count(); got != 0 {
		t.Fatalf("aeu0 still holds %d orphaned keys", got)
	}
}

// TestBalanceAfterLostBalanceRepairsGap is the chaos suite's corrupt_frame
// violation (keys read as not-found for one balancing window) as a
// deterministic story: epoch 1 grants [250,299] to AEU 1 but its OpBalance
// is lost; before reconciliation gets its two sweeps in, epoch 2 arrives.
// The balancer planned epoch 2 against the routing table, so its fetch list
// for AEU 1 covers only the new growth [200,249] — nothing fetches
// [250,299], which AEU 1 never held. handleBalance must not adopt that part
// of the new bounds as if it had the data: it defers there and repairs.
func TestBalanceAfterLostBalanceRepairsGap(t *testing.T) {
	h := newHarness(t, topology.SingleNode(3), 3, 900)
	kvs := make([]prefixtree.KV, 0, 100)
	for k := uint64(200); k < 300; k++ {
		kvs = append(kvs, prefixtree.KV{Key: k, Value: k * 7})
	}
	h.seed(t, kvs)

	var mu sync.Mutex
	results := map[uint64]uint64{}
	answered := 0
	for _, a := range h.aeus {
		a.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, n int, err error) {
			mu.Lock()
			answered += n
			for _, kv := range kvs {
				results[kv.Key] = kv.Value
			}
			mu.Unlock()
		})
	}
	a0, a1 := h.aeus[0], h.aeus[1]

	// Epoch 1: [250,299] moves 0 -> 1. The source shrinks; the target's
	// command (and with it the fetch) is eaten.
	if err := h.router.UpdateRange(testObj, []csbtree.Entry{
		{Low: 0, Owner: 0}, {Low: 250, Owner: 1}, {Low: 600, Owner: 2},
	}); err != nil {
		t.Fatal(err)
	}
	a0.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{Epoch: 1, NewLo: 0, NewHi: 249},
	})

	// Epoch 2, planned from the table: [200,249] moves 0 -> 1 as well.
	if err := h.router.UpdateRange(testObj, []csbtree.Entry{
		{Low: 0, Owner: 0}, {Low: 200, Owner: 1}, {Low: 600, Owner: 2},
	}); err != nil {
		t.Fatal(err)
	}
	a0.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{Epoch: 2, NewLo: 0, NewHi: 199},
	})
	a1.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{Epoch: 2, NewLo: 200, NewHi: 599,
			Fetches: []command.Fetch{{From: 0, Lo: 200, Hi: 249}}},
	})
	if p := a1.Partition(testObj); p.Lo != 200 || p.Hi != 599 {
		t.Fatalf("aeu1 bounds [%d,%d], want [200,599]", p.Lo, p.Hi)
	}
	if len(repairs(a1)) != 1 {
		t.Fatalf("recovering = %+v, want the uncovered grant [250,299]", repairs(a1))
	}
	if r := repairs(a1)[0]; r.lo != 250 || r.hi != 299 || r.from != 0 {
		t.Fatalf("recovering = %+v, want [250,299] from aeu0", r)
	}

	// A lookup into the gap must wait for the repair, not read the empty
	// tree.
	a1.Outbox().RouteLookup(testObj, []uint64{260}, ClientReply, 1, 0)
	a1.Outbox().Flush()
	a1.Settle()
	mu.Lock()
	if answered != 0 {
		t.Fatalf("lookup answered (%d keys, %v) while its range had no data", answered, results)
	}
	mu.Unlock()

	h.settleAll(t, 50)
	mu.Lock()
	defer mu.Unlock()
	if answered != 1 || results[260] != 260*7 {
		t.Fatalf("deferred lookup: answered=%d results=%v, want key 260 = %d", answered, results, 260*7)
	}
	if len(a1.awaited) != 0 {
		t.Fatalf("aeu1 not settled: awaited %+v", a1.awaited)
	}
	if got := a1.Partition(testObj).Tree.Count(); got != 100 {
		t.Fatalf("aeu1 tree count = %d, want all 100 keys of [200,299]", got)
	}
	if got := a0.Partition(testObj).Tree.Count(); got != 0 {
		t.Fatalf("aeu0 still holds %d orphaned keys", got)
	}
}

// TestBalanceGrantFullyCoveredAddsNoRecovery pins the healthy cycle: bounds
// that grow by exactly the fetch list (either side, plus a shrink on the
// other) open no recovering range.
func TestBalanceGrantFullyCoveredAddsNoRecovery(t *testing.T) {
	h := newHarness(t, topology.SingleNode(3), 3, 900)
	a1 := h.aeus[1]
	a1.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{Epoch: 1, NewLo: 250, NewHi: 649, Fetches: []command.Fetch{
			{From: 2, Lo: 600, Hi: 649}, {From: 0, Lo: 250, Hi: 299},
		}},
	})
	if len(repairs(a1)) != 0 {
		t.Fatalf("recovering = %+v, want none for a fully fetched grant", repairs(a1))
	}
	a1.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{Epoch: 2, NewLo: 400, NewHi: 500},
	})
	if len(repairs(a1)) != 0 {
		t.Fatalf("recovering = %+v, want none for a pure shrink", repairs(a1))
	}
}

// TestRepairWalkFindsMisattributedOrphans pins the walk part of the repair:
// the recovering entry's recorded holder is wrong (AEU 0), the data sits at
// AEU 2, and the probe walk must reach it anyway instead of trusting the
// first empty answer.
func TestRepairWalkFindsMisattributedOrphans(t *testing.T) {
	h := newHarness(t, topology.SingleNode(3), 3, 900)
	kvs := make([]prefixtree.KV, 0, 50)
	for k := uint64(600); k < 650; k++ {
		kvs = append(kvs, prefixtree.KV{Key: k, Value: k + 1})
	}
	h.seed(t, kvs)

	// [600,649] now belongs to AEU 1 per the tables and AEU 1's bounds, but
	// the tuples never moved: AEU 2 shrank past them (its balance applied)
	// while AEU 1's fetch was lost, and the recovering entry blames the
	// wrong peer.
	if err := h.router.UpdateRange(testObj, []csbtree.Entry{
		{Low: 0, Owner: 0}, {Low: 300, Owner: 1}, {Low: 650, Owner: 2},
	}); err != nil {
		t.Fatal(err)
	}
	a1, a2 := h.aeus[1], h.aeus[2]
	a1.Partition(testObj).Hi = 649
	a2.Partition(testObj).Lo = 650
	a1.awaited = append(a1.awaited, awaitedRange{obj: testObj, lo: 600, hi: 649, from: 0})

	h.settleAll(t, 50)
	if len(repairs(a1)) != 0 {
		t.Fatalf("recovering not cleared: %+v", repairs(a1))
	}
	if got := a1.Partition(testObj).Tree.Count(); got != 50 {
		t.Fatalf("aeu1 tree count = %d, want 50 repaired keys", got)
	}
	if got := a2.Partition(testObj).Tree.Count(); got != 0 {
		t.Fatalf("aeu2 still holds %d orphaned keys", got)
	}
}

// TestTransferAuthorityRespectsHoles pins the authority rule for transfers
// served against pre-shrink bounds: a fetch tagged with the current balance
// epoch is trusted when the old bounds covered it — unless the range was
// itself still recovering when that balance arrived. Bounds that claim data
// which never arrived must not mint an authoritative (possibly empty)
// transfer, or the hole propagates to the next owner as settled state.
func TestTransferAuthorityRespectsHoles(t *testing.T) {
	h := newHarness(t, topology.SingleNode(3), 3, 900)
	a1, a2 := h.aeus[1], h.aeus[2]

	// AEU 1 owns [300,599] but [400,449] is a hole: granted by an earlier
	// cycle, data never arrived, repair still in flight.
	a1.awaited = append(a1.awaited, awaitedRange{obj: testObj, lo: 400, hi: 449, from: 0})
	a1.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj), Source: 1,
		Balance: &command.Balance{Epoch: 7, NewLo: 500, NewHi: 599},
	})
	p := a1.Partition(testObj)
	if p.prevLo != 300 || p.prevHi != 599 || p.prevEpoch != 7 {
		t.Fatalf("prev bounds [%d,%d] epoch %d, want [300,599] epoch 7", p.prevLo, p.prevHi, p.prevEpoch)
	}
	if len(p.prevHoles) != 1 {
		t.Fatalf("prevHoles = %+v, want the recovering range snapshot", p.prevHoles)
	}
	if len(repairs(a1)) != 0 {
		t.Fatalf("recovering = %+v, want pruned after shrink past it", repairs(a1))
	}

	// Epoch-7 fetch of the hole: pre-shrink bounds covered it, but the
	// snapshot says the data never arrived — must be non-authoritative.
	a1.handleFetch(command.Command{
		Op: command.OpFetch, Object: uint32(testObj), Source: 2, Tag: 7,
		Fetch: &command.Fetch{From: 1, Lo: 400, Hi: 449},
	})
	// Epoch-7 fetch of a hole-free part of the pre-shrink bounds: the
	// normal handover path, authoritative.
	a1.handleFetch(command.Command{
		Op: command.OpFetch, Object: uint32(testObj), Source: 2, Tag: 7,
		Fetch: &command.Fetch{From: 1, Lo: 300, Hi: 399},
	})
	// Zero-epoch probe of the same range: repair fetches never claim
	// authority from pre-shrink bounds.
	a1.handleFetch(command.Command{
		Op: command.OpFetch, Object: uint32(testObj), Source: 2, Tag: 0,
		Fetch: &command.Fetch{From: 1, Lo: 300, Hi: 399},
	})

	a2.mailMu.Lock()
	defer a2.mailMu.Unlock()
	if len(a2.mail) != 3 {
		t.Fatalf("aeu2 received %d transfers, want 3", len(a2.mail))
	}
	if a2.mail[0].auth {
		t.Fatal("transfer over a recovering hole marked authoritative")
	}
	if !a2.mail[1].auth {
		t.Fatal("pre-shrink-bounds transfer of the current epoch not authoritative")
	}
	if a2.mail[2].auth {
		t.Fatal("zero-epoch probe transfer marked authoritative")
	}
}

// TestNonAuthTransferDoesNotConfirm pins receive-side authority handling: a
// non-authoritative transfer links its payload (duplicate-safe) and counts
// as a probe acknowledgement, but must not clear the recovering range — only
// an authoritative transfer or walk exhaustion may do that.
func TestNonAuthTransferDoesNotConfirm(t *testing.T) {
	h := newHarness(t, topology.SingleNode(3), 3, 900)
	a1 := h.aeus[1]
	a1.awaited = append(a1.awaited, awaitedRange{obj: testObj, lo: 400, hi: 449, from: 0, tries: 1})

	a1.deliverTransfer(transfer{obj: testObj, from: 0, lo: 400, hi: 449})
	a1.receiveTransfers()
	if len(repairs(a1)) != 1 {
		t.Fatalf("recovering = %+v, want entry kept after non-auth transfer", repairs(a1))
	}
	if r := repairs(a1)[0]; r.acks != 1 {
		t.Fatalf("acks = %d, want 1 (probe answered)", r.acks)
	}

	a1.deliverTransfer(transfer{obj: testObj, from: 0, lo: 400, hi: 449, auth: true})
	a1.receiveTransfers()
	if len(repairs(a1)) != 0 {
		t.Fatalf("recovering = %+v, want cleared by authoritative transfer", repairs(a1))
	}
}

// TestPruneRecoveringTrimsToBounds pins the bounds prune: entries outside
// newly adopted bounds are dropped (their keys forward to the new owner),
// intersecting entries are trimmed and restart their walk.
func TestPruneRecoveringTrimsToBounds(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a0 := h.aeus[0]
	a0.awaited = append(a0.awaited,
		awaitedRange{obj: testObj, lo: 100, hi: 199, from: 1, tries: 2, acks: 1},
		awaitedRange{obj: testObj, lo: 700, hi: 799, from: 1},
	)
	a0.pruneAwaited(testObj, 150, 499)
	if len(repairs(a0)) != 1 {
		t.Fatalf("recovering = %+v, want one trimmed entry", repairs(a0))
	}
	r := repairs(a0)[0]
	if r.lo != 150 || r.hi != 199 {
		t.Fatalf("trimmed to [%d,%d], want [150,199]", r.lo, r.hi)
	}
	if r.tries != 0 || r.acks != 0 {
		t.Fatalf("walk counters not reset on trim: %+v", r)
	}
}

// TestAwaitedRangesArePerObject: an AEU holds one partition per object, and a
// range awaited for object A says nothing about object B's keys in the same
// interval. With a grant on A outstanding, B's lookups there are answered
// and a fetch for B's data there is served, not deferred.
func TestAwaitedRangesArePerObject(t *testing.T) {
	const objB = testObj + 1
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a0, a1 := h.aeus[0], h.aeus[1]
	// Object B: AEU 1 already owns [400,999] and holds its data.
	for _, a := range h.aeus {
		lo, hi := uint64(0), uint64(399)
		if a.ID == 1 {
			lo, hi = 400, 999
		}
		if _, err := a.AddIndexPartition(objB, h.stores[a.Node], lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.router.RegisterRange(objB, []csbtree.Entry{{Low: 0, Owner: 0}, {Low: 400, Owner: 1}}); err != nil {
		t.Fatal(err)
	}
	for k := uint64(400); k < 500; k++ {
		a1.Partition(objB).Tree.Upsert(a1.Core, k, k*3, 1)
	}

	var mu sync.Mutex
	answers := map[uint64][]prefixtree.KV{} // tag -> payload
	a1.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
		mu.Lock()
		answers[tag] = append([]prefixtree.KV{}, kvs...)
		mu.Unlock()
	})

	// Object A: epoch 1 grants [400,499] to AEU 1; AEU 0 never gets to serve
	// the fetch, so the grant stays outstanding.
	if err := h.router.UpdateRange(testObj, []csbtree.Entry{{Low: 0, Owner: 0}, {Low: 400, Owner: 1}}); err != nil {
		t.Fatal(err)
	}
	a1.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{Epoch: 1, NewLo: 400, NewHi: 999,
			Fetches: []command.Fetch{{From: 0, Lo: 400, Hi: 499}}},
	})
	if !a1.overlapsAwaited(testObj, 450, 450) || a1.overlapsAwaited(objB, 450, 450) {
		t.Fatalf("awaited = %+v: want key 450 awaited for object A only", a1.awaited)
	}

	a1.Outbox().RouteLookup(testObj, []uint64{450}, ClientReply, 1, 0)
	a1.Outbox().RouteLookup(objB, []uint64{450}, ClientReply, 2, 0)
	a1.Outbox().Flush()
	a1.Step()
	mu.Lock()
	if _, ok := answers[1]; ok {
		t.Fatal("object A's lookup answered while its range is still in transit")
	}
	if got := answers[2]; len(got) != 1 || got[0].Value != 450*3 {
		t.Fatalf("object B's lookup = %+v, want key 450 answered from its own tree", got)
	}
	mu.Unlock()

	deferredBefore := len(a1.deferred)
	a1.handleFetch(command.Command{
		Op: command.OpFetch, Object: uint32(objB), Source: 0,
		Fetch: &command.Fetch{From: 1, Lo: 400, Hi: 449},
	})
	if len(a1.deferred) != deferredBefore {
		t.Fatal("fetch for object B deferred behind object A's grant")
	}
	a0.mailMu.Lock()
	defer a0.mailMu.Unlock()
	if len(a0.mail) != 1 || a0.mail[0].obj != objB || a0.mail[0].ex.Count() != 50 {
		t.Fatalf("aeu0 mailbox = %+v, want object B's 50 tuples of [400,449]", a0.mail)
	}
}

// TestUnsatisfiedGrantBecomesRepairInPlace: a grant whose fetch is lost stays
// one entry of the awaited list when its epoch closes — by the next cycle's
// command or by an error reply — with the epoch zeroed, the walk not yet
// started and the fetch target as first probe; the walk then heals it, once.
func TestUnsatisfiedGrantBecomesRepairInPlace(t *testing.T) {
	closers := map[string]func(a1 *AEU){
		"next_epoch": func(a1 *AEU) {
			a1.handleBalance(command.Command{
				Op: command.OpBalance, Object: uint32(testObj),
				Balance: &command.Balance{Epoch: 2, NewLo: 250, NewHi: 599},
			})
		},
		"error_reply": func(a1 *AEU) {
			a1.handleError(command.Command{Op: command.OpError, Object: uint32(testObj), Source: 0, Tag: 1})
		},
	}
	for name, closeEpoch := range closers {
		t.Run(name, func(t *testing.T) {
			inj := faults.New(1)
			h := newHarnessRouting(t, topology.SingleNode(3), 3, 900, routing.Config{Faults: inj})
			kvs := make([]prefixtree.KV, 0, 50)
			for k := uint64(250); k < 300; k++ {
				kvs = append(kvs, prefixtree.KV{Key: k, Value: k * 7})
			}
			h.seed(t, kvs)
			a0, a1 := h.aeus[0], h.aeus[1]

			// Epoch 1 moves [250,299] from AEU 0 to AEU 1; a corrupted frame
			// eats the fetch on its way to AEU 0.
			if err := h.router.UpdateRange(testObj, []csbtree.Entry{
				{Low: 0, Owner: 0}, {Low: 250, Owner: 1}, {Low: 600, Owner: 2},
			}); err != nil {
				t.Fatal(err)
			}
			a0.handleBalance(command.Command{
				Op: command.OpBalance, Object: uint32(testObj),
				Balance: &command.Balance{Epoch: 1, NewLo: 0, NewHi: 249},
			})
			a1.handleBalance(command.Command{
				Op: command.OpBalance, Object: uint32(testObj),
				Balance: &command.Balance{Epoch: 1, NewLo: 250, NewHi: 599,
					Fetches: []command.Fetch{{From: 0, Lo: 250, Hi: 299}}},
			})
			a1.Outbox().Flush()
			inj.Arm(faults.CorruptFrame, faults.Rule{Every: 1, Limit: 1})
			a0.Step()
			if inj.Injected(faults.CorruptFrame) != 1 || a0.Partition(testObj).Tree.Count() != 50 {
				t.Fatalf("fetch not lost: %d frames corrupted, aeu0 holds %d keys",
					inj.Injected(faults.CorruptFrame), a0.Partition(testObj).Tree.Count())
			}
			if len(a1.awaited) != 1 || a1.awaited[0].epoch != 1 {
				t.Fatalf("awaited = %+v, want the one grant of epoch 1", a1.awaited)
			}

			closeEpoch(a1)
			want := awaitedRange{obj: testObj, lo: 250, hi: 299, from: 0}
			if len(a1.awaited) != 1 || a1.awaited[0] != want {
				t.Fatalf("awaited = %+v, want exactly %+v (same entry, epoch zeroed, walk not started)", a1.awaited, want)
			}
			if got := a1.repairs.Load(); got != 0 {
				t.Fatalf("range_repairs = %d before the walk ran", got)
			}

			h.settleAll(t, 50)
			if len(a1.awaited) != 0 {
				t.Fatalf("awaited not cleared: %+v", a1.awaited)
			}
			if got := a1.repairs.Load(); got != 1 {
				t.Fatalf("range_repairs = %d, want 1", got)
			}
			if got := a1.Partition(testObj).Tree.Count(); got != 50 {
				t.Fatalf("aeu1 tree count = %d, want the 50 repaired keys", got)
			}
			if got := a0.Partition(testObj).Tree.Count(); got != 0 {
				t.Fatalf("aeu0 still holds %d orphaned keys", got)
			}
		})
	}
}

// TestSettleIsStep: Settle runs the loop body itself — a payload parked in
// the mailbox and a command deferred behind it are both applied — minus
// workload generation; and a step that finds nothing reports no progress.
func TestSettleIsStep(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a1 := h.aeus[1]
	if a1.Step() {
		t.Fatal("Step on an idle AEU reported progress")
	}
	generated := 0
	a1.Generator = GeneratorFunc(func(*AEU) bool { generated++; return true })
	var mu sync.Mutex
	var results []prefixtree.KV
	a1.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
		mu.Lock()
		results = append(results, kvs...)
		mu.Unlock()
	})

	// Epoch 1 grants [400,499] to AEU 1; a lookup into it defers.
	if err := h.router.UpdateRange(testObj, []csbtree.Entry{{Low: 0, Owner: 0}, {Low: 400, Owner: 1}}); err != nil {
		t.Fatal(err)
	}
	a1.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{Epoch: 1, NewLo: 400, NewHi: 999,
			Fetches: []command.Fetch{{From: 0, Lo: 400, Hi: 499}}},
	})
	a1.Outbox().RouteLookup(testObj, []uint64{420}, ClientReply, 1, 0)
	a1.Outbox().Flush()
	if !a1.Settle() || len(a1.deferred) != 1 {
		t.Fatalf("lookup into the granted range: deferred = %d, want 1", len(a1.deferred))
	}
	// The loops stop with the payload still in the mailbox.
	a1.deliverTransfer(transfer{
		obj: testObj, epoch: 1, from: 0, lo: 400, hi: 499, auth: true,
		kvs: []prefixtree.KV{{Key: 420, Value: 4200}},
	})
	for i := 0; a1.Settle(); i++ {
		if i > 10 {
			t.Fatal("Settle never runs dry")
		}
	}
	mu.Lock()
	if len(results) != 1 || results[0] != (prefixtree.KV{Key: 420, Value: 4200}) {
		t.Fatalf("deferred lookup after Settle = %+v, want the transferred tuple", results)
	}
	mu.Unlock()
	if len(a1.awaited) != 0 || len(a1.deferred) != 0 || len(a1.pendingFetches) != 0 {
		t.Fatalf("not settled: awaited %+v deferred %d fetches %v", a1.awaited, len(a1.deferred), a1.pendingFetches)
	}
	if generated != 0 {
		t.Fatalf("Settle generated workload %d times", generated)
	}
	if !a1.Step() || generated != 1 {
		t.Fatalf("Step with a live generator: generated = %d, want 1 and progress", generated)
	}
}
