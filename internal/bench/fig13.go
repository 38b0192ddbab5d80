package bench

import (
	"fmt"

	"eris/internal/aeu"
	"eris/internal/balance"
	"eris/internal/core"
	"eris/internal/routing"
	"eris/internal/topology"
	"eris/internal/workload"
)

// fig13Run executes one dynamic-workload run (Figure 13): lookups whose hot
// range follows the schedule, with the given balancing algorithm (nil =
// balancer off). It returns the per-bin throughput series.
type fig13Run struct {
	name   string
	alg    balance.Algorithm
	series []float64
	cycles []balance.Cycle
}

// fig13Config derives the scaled experiment shape.
type fig13Config struct {
	domain    uint64
	numAEUs   int
	schedule  *workload.Schedule
	runSec    float64
	binSec    float64
	sampleSec float64
}

func fig13Shape(p Params, schedule *workload.Schedule, timeScale float64) fig13Config {
	cfg := fig13Config{
		domain:  uint64(512e6 / p.scale()), // paper: 512 M keys
		numAEUs: 32,
	}
	if p.Quick {
		cfg.numAEUs = 16
		timeScale /= 4
	}
	scaled := &workload.Schedule{}
	for _, ph := range schedule.Phases {
		scaled.Phases = append(scaled.Phases, workload.Phase{
			Start: ph.Start * timeScale,
			Lo:    uint64(float64(ph.Lo) / 512e6 * float64(cfg.domain)),
			Hi:    uint64(float64(ph.Hi) / 512e6 * float64(cfg.domain)),
		})
	}
	cfg.schedule = scaled
	cfg.runSec = scaled.End() + 20*timeScale
	cfg.binSec = cfg.runSec / 50
	cfg.sampleSec = cfg.binSec
	return cfg
}

func (c fig13Config) run(name string, alg balance.Algorithm) (*fig13Run, error) {
	e, err := core.New(core.Config{
		Topology: topology.AMD(),
		NumAEUs:  c.numAEUs,
		AEU:      aeu.Config{SkewWindowNS: c.binSec * 1e9 / 4},
		Tree:     treeConfig64(),
		// Small incoming buffers keep the consumer loop much shorter than a
		// measurement bin while it keeps up. An overloaded AEU's backlog
		// spills to its overflow queue, which one Swap drains whole, so the
		// unbalanced run's bins swing wider than the balanced runs'.
		Routing: routing.Config{InBufBytes: 1 << 16},
		Balance: balance.Config{
			SampleIntervalSec: c.sampleSec,
			Threshold:         0.2,
		},
	})
	if err != nil {
		return nil, err
	}
	defer e.Stop()
	if err := e.CreateIndex(benchObj, c.domain); err != nil {
		return nil, err
	}
	if err := e.LoadIndexDense(benchObj, c.domain, nil); err != nil {
		return nil, err
	}
	if alg != nil {
		if err := e.Watch(benchObj, alg); err != nil {
			return nil, err
		}
	}
	tl := e.EnableTimeline(c.runSec, c.binSec)
	e.SetGenerators(func(i int) aeu.Generator {
		return &core.DynamicLookupGenerator{
			Object: benchObj, Schedule: c.schedule,
			Batch: 64, DurationSec: c.runSec * 2,
		}
	})
	if err := e.Start(); err != nil {
		return nil, err
	}
	if err := e.WaitVirtual(c.runSec, realTimeout); err != nil {
		return nil, err
	}
	e.Stop()
	r := &fig13Run{name: name, alg: alg, series: tl.Series()}
	r.cycles = e.Balancer().Cycles()
	return r, nil
}

// Fig13 reproduces the load balancer experiment: lookup throughput over
// time under the dynamic workload (10 s uniform, drastic narrowing to half
// the domain, then four slight shifts), for no balancing, One-Shot, MA1 and
// MA8. Paper: One-Shot drops deepest but recovers fastest; MA1 drops
// gently but recovers slowly; MA8 is the best compromise on this machine.
func Fig13(p Params) ([]*Table, error) {
	cfg := fig13Shape(p, workload.Fig13Schedule(512e6), 1.0/1000)
	variants := []struct {
		name string
		alg  balance.Algorithm
	}{
		{"off", nil},
		{"One-Shot", balance.OneShot{}},
		{"MA1", balance.MovingAverage{Window: 1}},
		{"MA8", balance.MovingAverage{Window: 8}},
	}
	runs := make([]*fig13Run, 0, len(variants))
	for _, v := range variants {
		r, err := cfg.run(v.name, v.alg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}

	series := &Table{
		Title:   "Figure 13: Lookup Throughput Over Time (AMD, dynamic workload)",
		Headers: []string{"t (ms)", "off (M/s)", "One-Shot (M/s)", "MA1 (M/s)", "MA8 (M/s)"},
	}
	bins := len(runs[0].series)
	lastBin := int(cfg.runSec/cfg.binSec) - 1
	if lastBin > bins {
		lastBin = bins
	}
	for b := 0; b < lastBin; b++ {
		row := []any{fmt.Sprintf("%.2f", float64(b)*cfg.binSec*1e3)}
		for _, r := range runs {
			row = append(row, mops(r.series[b]))
		}
		series.Add(row...)
	}
	for i, ph := range cfg.schedule.Phases {
		if i > 0 {
			series.Note("workload change %d at t=%.2f ms -> hot range [%d, %d)", i, ph.Start*1e3, ph.Lo, ph.Hi)
		}
	}

	summary := &Table{
		Title:   "Figure 13 (summary): Drop Depth and Recovery per Algorithm",
		Headers: []string{"algorithm", "min after change (M/s)", "drop %", "recovery (ms)", "balance cycles"},
	}
	changeBin := int(cfg.schedule.Phases[1].Start/cfg.binSec) + 1
	all := make([][]float64, len(runs))
	for i, r := range runs {
		all[i] = r.series
	}
	base := fig13Baseline(all, changeBin)
	for _, r := range runs {
		minTput, recMS := fig13Summary(r.series, base, changeBin, lastBin, cfg.binSec)
		summary.Add(r.name, mops(minTput), 100*(1-minTput/base), recMS, len(r.cycles))
	}
	summary.Note("baseline %s M/s: mean of bins %d..%d (before the drastic change, after warm-up and start-up) over all %d runs", mops(base), startupBins, changeBin-2, len(runs))
	summary.Note("recovery: start of the first %d consecutive bins after the drastic change back at >=90%% of baseline; -1 = not recovered", recoveryBins)
	return []*Table{series, summary}, nil
}

// recoveryBins is how many consecutive bins must be back at >= 90 % of
// baseline before a series counts as recovered: one bin can get there on
// noise alone.
const recoveryBins = 3

// startupBins is how many bins the baseline skips: bin 0 is warm-up, and
// bin 1 is a start-up peak that reads up to ~1.5x the steady pre-change
// throughput in quick runs.
const startupBins = 2

// fig13Baseline is the steady throughput before the change: the mean of
// bins startupBins..changeBin-2 (bin changeBin-1 holds the change) over
// every series. The runs see the same uniform workload until the change,
// so pooling their bins keeps one run's bin noise, or a balancer's early
// move, out of every run's drop and recovery.
func fig13Baseline(series [][]float64, changeBin int) float64 {
	var sum float64
	n := 0
	for _, s := range series {
		for b := startupBins; b < changeBin-1 && b < len(s); b++ {
			sum += s[b]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// fig13Summary computes the post-change minimum of a series and its
// recovery time against base: the start of the first recoveryBins
// consecutive bins at >= 90 % of base, or -1 if none.
func fig13Summary(series []float64, base float64, changeBin, lastBin int, binSec float64) (min, recoveryMS float64) {
	min = -1
	recoveryMS = -1
	run := 0 // consecutive bins at >= 90 % of baseline, ending at b
	for b := max(changeBin, 0); b < lastBin && b < len(series); b++ {
		if min < 0 || series[b] < min {
			min = series[b]
		}
		if series[b] >= 0.9*base {
			run++
		} else {
			run = 0
		}
		if recoveryMS < 0 && run == recoveryBins {
			recoveryMS = float64(b+1-recoveryBins-changeBin) * binSec * 1e3
		}
	}
	if min < 0 {
		min = 0
	}
	return min, recoveryMS
}
