package aeu

import (
	"sync"
	"testing"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// TestColumnScanDuringBalance interleaves multicast predicate scans with
// size-balancing transfers that move column blocks between the two holders:
// every scan's cross-AEU total must stay exact no matter how the tuples are
// currently split, and the zone-map block counters must add up to the
// blocks each holder walked.
func TestColumnScanDuringBalance(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	const col routing.ObjectID = 2
	p0, err := h.aeus[0].AddColumnPartition(col, colstore.Config{ChunkEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.aeus[1].AddColumnPartition(col, colstore.Config{ChunkEntries: 64}); err != nil {
		t.Fatal(err)
	}
	if err := h.router.RegisterSize(col, []uint32{0, 1}); err != nil {
		t.Fatal(err)
	}
	// Values skip the span [gapLo,gapHi], which starts on a block boundary,
	// so no block's zone map covers it until a transfer corrupts one.
	const tuples = 4000
	const gapLo, gapHi = 3584, 3783
	vals := make([]uint64, tuples)
	for i := range vals {
		vals[i] = uint64(i)
		if i >= gapLo {
			vals[i] += gapHi - gapLo + 1
		}
	}
	p0.Col.Append(h.aeus[0].Core, vals)

	type result struct {
		matched uint64
		replies int
	}
	var mu sync.Mutex
	got := map[uint64]*result{}
	for _, a := range h.aeus {
		a.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
			mu.Lock()
			defer mu.Unlock()
			r := got[tag]
			if r == nil {
				r = &result{}
				got[tag] = r
			}
			if len(kvs) > 0 {
				r.matched += kvs[0].Key
			}
			r.replies++
		})
	}

	preds := []struct {
		pred colstore.Predicate
		want uint64
	}{
		{colstore.Predicate{Op: colstore.Less, Operand: 1000}, 1000},
		{colstore.Predicate{Op: colstore.Between, Operand: 1500, High: 2500}, 1001},
		{colstore.Predicate{Op: colstore.Greater, Operand: 4189}, 10},
		{colstore.Predicate{Op: colstore.Between, Operand: gapLo, High: gapHi}, 0},
	}
	scanRound := func(round int) {
		ob := h.aeus[1].Outbox()
		base := uint64(round * len(preds))
		for i, pc := range preds {
			ob.RouteScan(col, pc.pred, ClientReply, base+uint64(i)+1)
		}
		ob.Flush()
		h.step(0)
		h.step(1)
		mu.Lock()
		defer mu.Unlock()
		for i, pc := range preds {
			tag := base + uint64(i) + 1
			r := got[tag]
			if r == nil || r.replies != 2 {
				t.Fatalf("round %d scan %d: replies %+v, want 2 holders", round, i, r)
			}
			if r.matched != pc.want {
				t.Fatalf("round %d scan %d (%+v): matched %d, want %d", round, i, pc.pred, r.matched, pc.want)
			}
		}
	}

	// Move 700 tuples from AEU 0 to AEU 1 between scan rounds, in uneven
	// slices so the transfers split blocks as well as moving whole ones.
	moves := []int64{100, 250, 350}
	scanRound(0)
	for i, n := range moves {
		h.aeus[1].handleBalance(command.Command{
			Op: command.OpBalance, Object: uint32(col), Source: 1,
			ReplyTo: command.NoReply,
			Balance: &command.Balance{
				Epoch:   uint64(i + 1),
				Fetches: []command.Fetch{{From: 0, Tuples: n}},
			},
		})
		h.aeus[1].Outbox().Flush()
		h.step(0) // serve the fetch, ship the detached run
		h.step(1) // link it into the receiving partition
		scanRound(i + 1)
	}
	moved := int64(0)
	for _, n := range moves {
		moved += n
	}
	if g0, g1 := h.aeus[0].Partition(col).SizeTuples(), h.aeus[1].Partition(col).SizeTuples(); g0 != tuples-moved || g1 != moved {
		t.Fatalf("tuple split = (%d, %d), want (%d, %d)", g0, g1, tuples-moved, moved)
	}

	// The zone-map counters saw every pass: both holders walked blocks for
	// 4 rounds x 4 scans.
	for _, a := range h.aeus {
		s := a.colBlocksScanned.Load() + a.colBlocksPruned.Load() + a.colBlocksFullHit.Load()
		if s == 0 {
			t.Fatalf("aeu %d recorded no colscan block outcomes", a.ID)
		}
	}

	// With the transfers done, a scan over the gap must be answered
	// entirely from zone maps: the moved and split blocks carry summaries
	// of exactly the values they hold, so no holder evaluates a single
	// block.
	preScanned := make([]int64, len(h.aeus))
	prePruned := make([]int64, len(h.aeus))
	for i, a := range h.aeus {
		preScanned[i] = a.colBlocksScanned.Load()
		prePruned[i] = a.colBlocksPruned.Load()
	}
	ob := h.aeus[1].Outbox()
	const gapTag = 99
	ob.RouteScan(col, colstore.Predicate{Op: colstore.Between, Operand: gapLo, High: gapHi}, ClientReply, gapTag)
	ob.Flush()
	h.step(0)
	h.step(1)
	mu.Lock()
	if r := got[gapTag]; r == nil || r.replies != 2 || r.matched != 0 {
		mu.Unlock()
		t.Fatalf("gap scan result = %+v, want 2 empty holder replies", got[gapTag])
	}
	mu.Unlock()
	var scannedDelta, prunedDelta int64
	for i, a := range h.aeus {
		scannedDelta += a.colBlocksScanned.Load() - preScanned[i]
		prunedDelta += a.colBlocksPruned.Load() - prePruned[i]
	}
	if scannedDelta != 0 {
		t.Fatalf("gap scan evaluated %d blocks; a transfer widened a zone map over the gap", scannedDelta)
	}
	if prunedDelta == 0 {
		t.Fatal("gap scan pruned no blocks; the assertion lost its subject")
	}
}
