package colstore

import "testing"

// TestScanVirtualCostPinned pins the exact virtual time and bytes a scan
// charges on the machine, for the single-predicate pass the figure runners'
// self-scans use (ScanFiltered) and for the shared pass served scans use
// (SharedScan). The column's blocks are pruned, fully accepted and
// evaluated, so every branch of the cost model is charged: one zone check
// per (block, scan), one stream per evaluated block, one compute charge per
// kernel run. The constants are the model's output, not a derivation; a
// change to any of them moves every simulated scan figure.
func TestScanVirtualCostPinned(t *testing.T) {
	f := newFixture(t)
	col := f.local(0, 64)
	col.Append(0, seq(288)) // blocks [0,63] [64,127] [128,191] [192,255] [256,287]
	snap := col.Snapshot()
	const core = 10 // on node 1: every streamed byte crosses a link

	between := Predicate{Op: Between, Operand: 64, High: 150} // prune, full, eval, prune, prune
	less := Predicate{Op: Less, Operand: 200}                 // full, full, full, eval, prune
	shared := func(preds ...Predicate) ScanStats {
		specs := make([]ScanSpec, len(preds))
		for i, p := range preds {
			specs[i] = SpecOf(p)
		}
		var scratch ScanScratch
		return col.SharedScan(core, snap, specs, make([]ScanAgg, len(specs)), &scratch)
	}
	cases := []struct {
		name         string
		run          func() ScanStats
		stats        ScanStats
		ps, mc, link int64
	}{
		{"ScanFiltered", func() ScanStats {
			r := col.ScanFiltered(core, snap, between)
			return ScanStats{BlocksScanned: r.BlocksScanned, BlocksPruned: r.BlocksPruned, BlocksFullHit: r.BlocksFullHit}
		}, ScanStats{BlocksScanned: 1, BlocksPruned: 3, BlocksFullHit: 1}, 64250, 512, 512},
		{"SharedScan/1", func() ScanStats { return shared(between) },
			ScanStats{BlocksScanned: 1, BlocksPruned: 3, BlocksFullHit: 1, BlocksStreamed: 1}, 64250, 512, 512},
		// The two identical predicates share one kernel run on their
		// evaluated block; the third evaluates another block, so two blocks
		// stream and two kernels run.
		{"SharedScan/3", func() ScanStats { return shared(between, between, less) },
			ScanStats{BlocksScanned: 3, BlocksPruned: 7, BlocksFullHit: 5, BlocksStreamed: 2}, 138500, 1024, 1024},
	}
	for _, c := range cases {
		e := f.machine.StartEpoch()
		before := f.machine.Clock(core)
		stats := c.run()
		ps := f.machine.Clock(core) - before
		mc, link := e.TotalMCBytes(), e.TotalLinkBytes()
		if stats != c.stats {
			t.Errorf("%s: stats %+v, want %+v", c.name, stats, c.stats)
		}
		if ps != c.ps || mc != c.mc || link != c.link {
			t.Errorf("%s: charged (%d ps, %d MC bytes, %d link bytes), want (%d, %d, %d)",
				c.name, ps, mc, link, c.ps, c.mc, c.link)
		}
	}
}
