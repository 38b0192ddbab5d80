package bench

import (
	"eris/internal/balance"
	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/topology"
	"eris/internal/workload"
)

// treeConfig64 is the index shape shared by all experiments: the paper's
// 64-bit keys with 8-bit prefix length (eight tree levels). It is explicit
// because an engine left at KeyBits 0 fits each tree to its domain, which
// would move the figures' cost model.
func treeConfig64() prefixtree.Config {
	return prefixtree.Config{KeyBits: 64, PrefixBits: 8}
}

// AblationDirectWrite isolates the value of the outgoing-buffer
// pre-batching: an outgoing buffer that holds a single command degenerates
// to direct remote writes per command, paying the full remote latency every
// time (the design alternative the routing layer exists to avoid).
func AblationDirectWrite(p Params) ([]*Table, error) {
	dur := p.dur(0.002)
	domain := uint64(1e9 / p.scale())
	t := &Table{
		Title:   "Ablation: Outgoing-Buffer Pre-Batching vs. Direct Remote Writes (AMD, raw routing)",
		Headers: []string{"buffer (bytes)", "~commands", "throughput (M cmd/s)", "vs direct"},
	}
	var direct float64
	for _, buf := range []int{approxCmdBytes + 2, 1024, 16384} {
		r, err := fig5Run(setup{Topo: topology.AMD(), OutBuf: buf, FlushOlap: 1}, domain, dur, false)
		if err != nil {
			return nil, err
		}
		if direct == 0 {
			direct = r.Throughput
		}
		t.Add(buf, buf/approxCmdBytes, mops(r.Throughput), speedup(r.Throughput, direct))
	}
	t.Note("one-command buffers pay one remote round trip per command; batching amortizes it")
	return []*Table{t}, nil
}

// AblationCoalescing compares the AEU's command grouping (scan sharing /
// batched lookups) against processing every routed command individually.
// Lookups exercise per-source batch merging; multicast scans exercise
// shared-pass folding — NoCoalesce splits scan groups too, so each scan
// pays its own partition pass.
func AblationCoalescing(p Params) ([]*Table, error) {
	dur := p.dur(0.002)
	domain := uint64(1e9 / p.scale())
	t := &Table{
		Title:   "Ablation: Command Grouping/Coalescing On vs. Off (AMD lookups)",
		Headers: []string{"grouping", "throughput (M lookups/s)"},
	}
	for _, variant := range []struct {
		name string
		off  bool
	}{{"on", false}, {"off", true}} {
		r, err := erisLookupRun(setup{Topo: topology.AMD(), CacheScale: p.cacheScale(), NoCoalesce: variant.off}, domain, 64, dur)
		if err != nil {
			return nil, err
		}
		t.Add(variant.name, mops(r.Throughput))
	}
	t.Note("grouping merges per-source batches so memory-level parallelism hides DRAM latency")

	s := &Table{
		Title:   "Ablation: Scan Coalescing On vs. Off (AMD multicast scans)",
		Headers: []string{"grouping", "throughput (K scans/s)"},
	}
	entries := int64(1e8 / p.scale())
	for _, variant := range []struct {
		name string
		off  bool
	}{{"on", false}, {"off", true}} {
		r, err := erisMulticastScanRun(setup{Topo: topology.AMD(), CacheScale: p.cacheScale(), NoCoalesce: variant.off}, entries, dur)
		if err != nil {
			return nil, err
		}
		s.Add(variant.name, kops(r.Throughput))
	}
	s.Note("a shared pass serves every scan in its group with one sweep over the partition; uncoalesced, each scan pays a full pass")
	return []*Table{t, s}, nil
}

// AblationTransfer measures the two partition transfer mechanisms of
// Figure 7 directly: moving a subtree between AEUs of the same node (link:
// reference grafting) vs. across nodes (copy: flatten, stream, rebuild).
func AblationTransfer(p Params) ([]*Table, error) {
	keys := uint64(200_000)
	if p.Quick {
		keys = 20_000
	}
	topo := topology.Intel()
	machine, err := numasim.New(topo, numasim.Config{})
	if err != nil {
		return nil, err
	}
	mems := mem.NewSystem(machine)
	store0, err := prefixtree.NewStore(machine, mems.Node(0), treeConfig64())
	if err != nil {
		return nil, err
	}
	store1, err := prefixtree.NewStore(machine, mems.Node(1), treeConfig64())
	if err != nil {
		return nil, err
	}
	sess0 := store0.NewSession()
	src := prefixtree.NewTree(sess0)
	for k := uint64(0); k < keys; k++ {
		src.Upsert(0, k, k, 16)
	}

	t := &Table{
		Title:   "Ablation: Link vs. Copy Partition Transfer (half of a partition)",
		Headers: []string{"mechanism", "tuples", "virtual time (us)", "us per 1000 tuples"},
	}

	// Link: same node, same store — pure reference grafting.
	before := machine.Clock(0)
	ex := src.ExtractRange(0, 0, keys/2-1)
	dst := prefixtree.NewTree(store0.NewSession())
	dst.Link(0, ex)
	linkUS := float64(machine.Clock(0)-before) / 1e6
	t.Add("link (same node)", keys/2, linkUS, linkUS/float64(keys/2)*1000)

	// Copy: cross node — flatten, stream, rebuild, discard.
	core1, _ := topo.CoresOfNode(1)
	before = machine.Clock(0)
	before1 := machine.Clock(core1)
	ex2 := src.ExtractRange(0, keys/2, keys-1)
	kvs := ex2.Flatten(0)
	ex2.Discard(0, sess0)
	dst2 := prefixtree.NewTree(store1.NewSession())
	dst2.RebuildFrom(core1, kvs)
	copyUS := float64(machine.Clock(0)-before+machine.Clock(core1)-before1) / 1e6
	t.Add("copy (cross node)", keys/2, copyUS, copyUS/float64(keys/2)*1000)
	t.Note("link cost is O(boundary nodes); copy pays flatten + interconnect stream + rebuild")
	return []*Table{t}, nil
}

// AblationMAWindow sweeps the moving-average window beyond the paper's
// {1, 8}, measuring drop depth and recovery for the drastic workload
// change.
func AblationMAWindow(p Params) ([]*Table, error) {
	// Shorter schedule: uniform, then one drastic change.
	schedule := &workload.Schedule{Phases: []workload.Phase{
		{Start: 0, Lo: 0, Hi: 512e6},
		{Start: 10, Lo: 128e6, Hi: 384e6},
	}}
	cfg := fig13Shape(p, schedule, 1.0/1000)
	t := &Table{
		Title:   "Ablation: Moving-Average Window Sweep (drastic change only)",
		Headers: []string{"window", "min (M/s)", "drop %", "recovery (ms)", "cycles"},
	}
	lastBin := int(cfg.runSec / cfg.binSec)
	changeBin := int(cfg.schedule.Phases[1].Start/cfg.binSec) + 1
	windows := []int{1, 2, 4, 8, 16, 31}
	runs := make([]*fig13Run, len(windows))
	all := make([][]float64, len(windows))
	for i, w := range windows {
		r, err := cfg.run("MA", balance.MovingAverage{Window: w})
		if err != nil {
			return nil, err
		}
		runs[i], all[i] = r, r.series
	}
	base := fig13Baseline(all, changeBin)
	for i, r := range runs {
		minT, rec := fig13Summary(r.series, base, changeBin, lastBin, cfg.binSec)
		t.Add(windows[i], mops(minT), 100*(1-minT/base), rec, len(r.cycles))
	}
	t.Note("baseline %s M/s: mean of the pre-change bins over all runs, as in Figure 13's summary", mops(base))
	t.Note("window >= partitions-1 behaves like One-Shot; small windows trade recovery speed for gentler drops")
	return []*Table{t}, nil
}
