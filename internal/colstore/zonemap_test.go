package colstore

import (
	"sync"
	"testing"

	"eris/internal/topology"
)

// refScan is the oracle for filtered scans: a plain loop over the visible
// values applying Predicate.Matches.
func refScan(col *Column, snapshot int64, p Predicate) (matched int64, sum uint64) {
	for _, v := range col.Values(0, snapshot) {
		if p.Matches(v) {
			matched++
			sum += v
		}
	}
	return matched, sum
}

// checkScan compares ScanFiltered and a one-spec SharedScan against the
// oracle for one predicate.
func checkScan(t *testing.T, col *Column, p Predicate) {
	t.Helper()
	snap := col.Snapshot()
	wantM, wantS := refScan(col, snap, p)
	res := col.ScanFiltered(0, snap, p)
	if res.Matched != wantM || res.Sum != wantS {
		t.Errorf("ScanFiltered(%+v) = (%d, %d), want (%d, %d)", p, res.Matched, res.Sum, wantM, wantS)
	}
	specs := []ScanSpec{SpecOf(p)}
	aggs := make([]ScanAgg, 1)
	var scratch ScanScratch
	col.SharedScan(0, snap, specs, aggs, &scratch)
	if int64(aggs[0].Matched) != wantM || aggs[0].Sum != wantS {
		t.Errorf("SharedScan(%+v) = (%d, %d), want (%d, %d)", p, aggs[0].Matched, aggs[0].Sum, wantM, wantS)
	}
}

func TestScanEmptyColumn(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 16)
	res := col.ScanFiltered(0, col.Snapshot(), Predicate{Op: All})
	if res.Scanned != 0 || res.Matched != 0 || res.BlocksScanned+res.BlocksPruned+res.BlocksFullHit != 0 {
		t.Fatalf("empty column scan = %+v", res)
	}
	var scratch ScanScratch
	aggs := make([]ScanAgg, 1)
	stats := col.SharedScan(0, col.Snapshot(), []ScanSpec{SpecOf(Predicate{Op: All})}, aggs, &scratch)
	if stats != (ScanStats{}) || aggs[0] != (ScanAgg{}) {
		t.Fatalf("empty column shared scan: stats %+v aggs %+v", stats, aggs[0])
	}
}

func TestScanPartialBlock(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 16)
	col.Append(0, seq(7)) // one block, less than half filled
	for _, p := range []Predicate{
		{Op: All},
		{Op: Less, Operand: 3},
		{Op: Between, Operand: 2, High: 5},
		{Op: Equal, Operand: 6},
		{Op: Greater, Operand: 6}, // nothing
	} {
		checkScan(t, col, p)
	}
}

// TestScanBlockBoundaryPredicates pins the zone-map comparisons on
// predicates that sit exactly on a block's min or max: off-by-one in a
// skip/full-accept comparison flips the result at these points.
func TestScanBlockBoundaryPredicates(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 8)
	col.Append(0, seq(24)) // blocks [0,7] [8,15] [16,23]
	for _, p := range []Predicate{
		{Op: Less, Operand: 8},                      // bounds [0,7]: exactly block 0
		{Op: Less, Operand: 9},                      // [0,8]: block 0 full, block 1 partial
		{Op: Greater, Operand: 15},                  // [16,max]: exactly block 2
		{Op: Greater, Operand: 16},                  // block 2 partial
		{Op: Between, Operand: 8, High: 15},         // exactly block 1
		{Op: Between, Operand: 7, High: 16},         // straddles all three
		{Op: Between, Operand: 8, High: 8},          // block 1's min alone
		{Op: Between, Operand: 15, High: 15},        // block 1's max alone
		{Op: Equal, Operand: 7},                     // block 0's max
		{Op: Equal, Operand: 8},                     // block 1's min
		{Op: Equal, Operand: 24},                    // just past the column max
		{Op: Less, Operand: 0},                      // matches nothing
		{Op: Greater, Operand: ^uint64(0)},          // matches nothing
		{Op: Between, Operand: 10, High: 2},         // inverted: matches nothing
		{Op: Between, Operand: 0, High: ^uint64(0)}, // matches everything
	} {
		checkScan(t, col, p)
	}

	// Exactly-on-boundary predicates must full-accept whole blocks, not
	// evaluate them.
	res := col.ScanFiltered(0, col.Snapshot(), Predicate{Op: Between, Operand: 8, High: 15})
	if res.BlocksFullHit != 1 || res.BlocksPruned != 2 || res.BlocksScanned != 0 {
		t.Fatalf("boundary between: %+v, want 1 full-hit + 2 pruned", res)
	}
}

// TestSharedScanManyPredicates checks a multi-scan shared pass (including
// duplicate predicates, which share one kernel run) against the oracle.
func TestSharedScanManyPredicates(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 16)
	col.Append(0, seq(200))
	preds := []Predicate{
		{Op: All},
		{Op: Less, Operand: 40},
		{Op: Less, Operand: 40}, // duplicate: kernel-run reuse path
		{Op: Between, Operand: 100, High: 160},
		{Op: Equal, Operand: 17},
		{Op: Greater, Operand: 198},
	}
	specs := make([]ScanSpec, len(preds))
	for i, p := range preds {
		specs[i] = SpecOf(p)
	}
	aggs := make([]ScanAgg, len(preds))
	var scratch ScanScratch
	snap := col.Snapshot()
	col.SharedScan(0, snap, specs, aggs, &scratch)
	for i, p := range preds {
		wantM, wantS := refScan(col, snap, p)
		if int64(aggs[i].Matched) != wantM || aggs[i].Sum != wantS {
			t.Errorf("shared scan %d (%+v) = (%d, %d), want (%d, %d)",
				i, p, aggs[i].Matched, aggs[i].Sum, wantM, wantS)
		}
	}
}

// TestSharedScanSteadyStateAllocs guards the scan path: after warm-up,
// neither a shared pass nor ScanFiltered may allocate, over narrow blocks
// (values below 2^32, the 32-bit kernel) and over wide ones.
func TestSharedScanSteadyStateAllocs(t *testing.T) {
	f := newFixture(t)
	wide := seq(1000)
	for i := range wide {
		wide[i] += 1 << 40
	}
	for _, c := range []struct {
		name string
		vals []uint64
		base uint64
	}{{"narrow", seq(1000), 0}, {"wide", wide, 1 << 40}} {
		col := f.local(0, 64)
		col.Append(0, c.vals)
		less := Predicate{Op: Less, Operand: c.base + 500}
		specs := []ScanSpec{
			SpecOf(less),
			SpecOf(Predicate{Op: Between, Operand: c.base + 100, High: c.base + 900}),
			SpecOf(Predicate{Op: All}),
		}
		aggs := make([]ScanAgg, len(specs))
		var scratch ScanScratch
		snap := col.Snapshot()
		run := func() {
			clear(aggs)
			col.SharedScan(0, snap, specs, aggs, &scratch)
		}
		run() // warm-up sizes the scratch
		if aggs[0].Matched != 500 || scratch.BytesStreamed() == 0 {
			t.Fatalf("%s: pass matched %d of 500 and streamed %d bytes", c.name, aggs[0].Matched, scratch.BytesStreamed())
		}
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Fatalf("%s: SharedScan allocates %.1f times per pass in steady state", c.name, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { col.ScanFiltered(0, snap, less) }); avg != 0 {
			t.Fatalf("%s: ScanFiltered allocates %.1f times per pass", c.name, avg)
		}
	}
}

// TestDetachDuringSharedScans moves the partition tail (the balancer's
// detach/link transfer path) while shared scans at pre-detach snapshots
// are running concurrently; under -race this doubles as the lock-discipline
// check for scans vs. structural mutation.
func TestDetachDuringSharedScans(t *testing.T) {
	f := newFixture(t)
	src := f.local(0, 16)
	dst := f.local(0, 16)
	src.Append(0, seq(500))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(core int) {
			defer wg.Done()
			var scratch ScanScratch
			specs := []ScanSpec{SpecOf(Predicate{Op: Less, Operand: 250})}
			aggs := make([]ScanAgg, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The column shrinks concurrently; a snapshot taken just
				// before each pass keeps the pass internally consistent.
				snap := src.Snapshot()
				clear(aggs)
				src.SharedScan(topology.CoreID(core), snap, specs, aggs, &scratch)
			}
		}(g)
	}
	moved := int64(0)
	for moved < 400 {
		det := src.DetachTail(0, 40)
		moved += det.Count()
		if err := dst.LinkDetached(0, 0, det); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()

	// Conservation: every tuple is in exactly one of the two columns.
	if got := src.Count() + dst.Count(); got != 500 {
		t.Fatalf("tuples after transfers = %d, want 500", got)
	}
	wantM, wantS := int64(250), uint64(249*250/2)
	sres := src.ScanFiltered(0, src.Snapshot(), Predicate{Op: Less, Operand: 250})
	dres := dst.ScanFiltered(0, dst.Snapshot(), Predicate{Op: Less, Operand: 250})
	if sres.Matched+dres.Matched != wantM || sres.Sum+dres.Sum != wantS {
		t.Fatalf("post-transfer scan = (%d, %d), want (%d, %d)",
			sres.Matched+dres.Matched, sres.Sum+dres.Sum, wantM, wantS)
	}
}

func TestPredicateBounds(t *testing.T) {
	max := ^uint64(0)
	cases := []struct {
		p      Predicate
		lo, hi uint64
		ok     bool
	}{
		{Predicate{Op: All}, 0, max, true},
		{Predicate{Op: Less, Operand: 10}, 0, 9, true},
		{Predicate{Op: Less, Operand: 0}, 0, 0, false},
		{Predicate{Op: Greater, Operand: 10}, 11, max, true},
		{Predicate{Op: Greater, Operand: max}, 0, 0, false},
		{Predicate{Op: Equal, Operand: 7}, 7, 7, true},
		{Predicate{Op: Between, Operand: 3, High: 9}, 3, 9, true},
		{Predicate{Op: Between, Operand: 9, High: 3}, 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, ok := c.p.Bounds()
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("Bounds(%+v) = (%d, %d, %v), want (%d, %d, %v)", c.p, lo, hi, ok, c.lo, c.hi, c.ok)
		}
		if !c.ok {
			spec := SpecOf(c.p)
			if spec.Lo <= spec.Hi {
				t.Errorf("SpecOf(%+v) = %+v, want empty interval", c.p, spec)
			}
		}
	}
}
