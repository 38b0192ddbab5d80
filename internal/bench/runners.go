package bench

import (
	"fmt"
	"time"

	"eris/internal/aeu"
	"eris/internal/colstore"
	"eris/internal/core"
	"eris/internal/hwcounter"
	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/routing"
	"eris/internal/shared"
	"eris/internal/topology"
	"eris/internal/workload"
)

// benchObj is the data object id all experiments use.
const benchObj routing.ObjectID = 1

// realTimeout bounds one measured phase in real time.
const realTimeout = 20 * time.Minute

// setup describes one engine instantiation.
type setup struct {
	Topo       *topology.Topology
	NumAEUs    int     // 0 = all cores
	CacheScale float64 // 0 = cache modeling off
	OutBuf     int     // routing outgoing buffer bytes (0 = default)
	InBuf      int
	NoCoalesce bool
	FlushOlap  int // routing flush pipelining override (0 = default)
}

func (s setup) engineConfig() core.Config {
	return core.Config{
		Topology: s.Topo,
		NumAEUs:  s.NumAEUs,
		Machine:  numasim.Config{CacheScale: s.CacheScale},
		Routing: routing.Config{
			OutBufBytes: s.OutBuf, InBufBytes: s.InBuf, FlushOverlap: s.FlushOlap,
		},
		AEU:  aeu.Config{SkewWindowNS: 1e6, NoCoalesce: s.NoCoalesce},
		Tree: treeConfig64(),
	}
}

// runMeasured starts the engine, opens a counter window, waits durSec of
// virtual time and returns the report. The engine's metrics snapshots at
// window start and end are recorded for TakeRunMetrics.
func runMeasured(e *core.Engine, durSec float64) (hwcounter.Report, error) {
	if err := e.Start(); err != nil {
		return hwcounter.Report{}, err
	}
	session := hwcounter.Start(e.Machine())
	startSnap := e.MetricsSnapshot()
	if err := e.WaitVirtual(durSec, realTimeout); err != nil {
		e.Stop()
		return hwcounter.Report{}, err
	}
	report := session.Report()
	endSnap := e.MetricsSnapshot()
	e.Stop()
	recordRunMetrics(RunMetrics{
		DurSec: durSec,
		Start:  startSnap,
		End:    endSnap,
		Delta:  endSnap.Delta(startSnap),
	})
	return report, nil
}

// erisLookupRun loads a dense domain and measures routed uniform lookups.
func erisLookupRun(s setup, domain uint64, batch int, durSec float64) (hwcounter.Report, error) {
	e, err := core.New(s.engineConfig())
	if err != nil {
		return hwcounter.Report{}, err
	}
	defer e.Stop()
	if err := e.CreateIndex(benchObj, domain); err != nil {
		return hwcounter.Report{}, err
	}
	if err := e.LoadIndexDense(benchObj, domain, nil); err != nil {
		return hwcounter.Report{}, err
	}
	e.SetGenerators(func(i int) aeu.Generator {
		return &core.LookupGenerator{
			Object: benchObj, Keys: workload.Uniform{Domain: domain},
			Batch: batch, PerLoop: perLoopFor(e.NumAEUs()), DurationSec: durSec * 3,
		}
	})
	return runMeasured(e, durSec)
}

// perLoopFor keeps the generated keys per target per loop roughly constant
// as the AEU count grows, so loop-end flushes stay amortized (the paper's
// outgoing buffers exist exactly for this).
func perLoopFor(numAEUs int) int {
	p := numAEUs / 4
	if p < 16 {
		p = 16
	}
	if p > 128 {
		p = 128
	}
	return p
}

// erisUpsertRun measures routed random upserts into an initially empty
// index over the given key domain.
func erisUpsertRun(s setup, domain uint64, batch int, durSec float64) (hwcounter.Report, error) {
	e, err := core.New(s.engineConfig())
	if err != nil {
		return hwcounter.Report{}, err
	}
	defer e.Stop()
	if err := e.CreateIndex(benchObj, domain); err != nil {
		return hwcounter.Report{}, err
	}
	e.SetGenerators(func(i int) aeu.Generator {
		return &core.UpsertGenerator{
			Object: benchObj, Keys: workload.Uniform{Domain: domain},
			Batch: batch, PerLoop: perLoopFor(e.NumAEUs()), DurationSec: durSec * 3,
		}
	})
	return runMeasured(e, durSec)
}

// erisScanRun loads a column (entries split over all AEUs) and measures
// multicast full scans.
func erisScanRun(s setup, totalEntries int64, durSec float64) (hwcounter.Report, error) {
	e, err := core.New(s.engineConfig())
	if err != nil {
		return hwcounter.Report{}, err
	}
	defer e.Stop()
	if err := e.CreateColumn(benchObj); err != nil {
		return hwcounter.Report{}, err
	}
	per := totalEntries / int64(e.NumAEUs())
	if per < 1 {
		per = 1
	}
	if err := e.LoadColumnUniform(benchObj, per, nil); err != nil {
		return hwcounter.Report{}, err
	}
	// Sustained scanning: each AEU scans its partition repeatedly, the
	// steady state of the paper's minute-long scan runs. The ~50%
	// selectivity filter keeps the pass streaming data: the uniform values
	// span the domain in every block, so the zone maps can neither skip nor
	// fully accept one — an unfiltered aggregate would be answered from the
	// per-block aggregates without touching memory, and this experiment
	// measures scan bandwidth.
	e.SetGenerators(func(i int) aeu.Generator {
		return &core.SelfScanGenerator{
			Object: benchObj, Pred: colstore.Predicate{Op: colstore.Less, Operand: 1 << 63},
			DurationSec: durSec * 3,
		}
	})
	return runMeasured(e, durSec)
}

// erisMulticastScanRun loads a column and measures routed multicast scans:
// every AEU keeps a window of scans in flight against all partitions, the
// path where receivers fold concurrent scans into shared passes (and where
// NoCoalesce forces one partition pass per scan command).
func erisMulticastScanRun(s setup, totalEntries int64, durSec float64) (hwcounter.Report, error) {
	e, err := core.New(s.engineConfig())
	if err != nil {
		return hwcounter.Report{}, err
	}
	defer e.Stop()
	if err := e.CreateColumn(benchObj); err != nil {
		return hwcounter.Report{}, err
	}
	per := totalEntries / int64(e.NumAEUs())
	if per < 1 {
		per = 1
	}
	if err := e.LoadColumnUniform(benchObj, per, nil); err != nil {
		return hwcounter.Report{}, err
	}
	// As in erisScanRun, the ~50% filter defeats the zone-map shortcuts so
	// every shared pass streams the partition — the cost the coalescing
	// ablation amortizes across the scans of a group.
	e.SetGenerators(func(i int) aeu.Generator {
		return &core.ScanGenerator{
			Object: benchObj, Pred: colstore.Predicate{Op: colstore.Less, Operand: 1 << 63},
			DurationSec: durSec * 3,
		}
	})
	return runMeasured(e, durSec)
}

// sharedMachine builds the machine + memory for a shared baseline run.
func sharedMachine(topo *topology.Topology, cacheScale float64) (*numasim.Machine, *mem.System, error) {
	m, err := numasim.New(topo, numasim.Config{CacheScale: cacheScale})
	if err != nil {
		return nil, nil, err
	}
	return m, mem.NewSystem(m), nil
}

// sharedLookupRun measures the interleaved shared-index lookup baseline.
func sharedLookupRun(topo *topology.Topology, workers int, cacheScale float64, domain uint64, batch int, durSec float64) (hwcounter.Report, error) {
	m, mems, err := sharedMachine(topo, cacheScale)
	if err != nil {
		return hwcounter.Report{}, err
	}
	ix, err := shared.NewIndex(m, mems, treeConfig64(), shared.Interleaved, 0)
	if err != nil {
		return hwcounter.Report{}, err
	}
	ix.LoadDense(workers, domain, nil)
	session := hwcounter.Start(m)
	ix.RunLookups(workers, workload.Uniform{Domain: domain}, batch, durSec)
	return session.Report(), nil
}

// sharedUpsertRun measures the interleaved shared-index upsert baseline.
func sharedUpsertRun(topo *topology.Topology, workers int, cacheScale float64, domain uint64, batch int, durSec float64) (hwcounter.Report, error) {
	m, mems, err := sharedMachine(topo, cacheScale)
	if err != nil {
		return hwcounter.Report{}, err
	}
	ix, err := shared.NewIndex(m, mems, treeConfig64(), shared.Interleaved, 0)
	if err != nil {
		return hwcounter.Report{}, err
	}
	session := hwcounter.Start(m)
	ix.RunUpserts(workers, workload.Uniform{Domain: domain}, batch, durSec)
	return session.Report(), nil
}

// sharedScanRun measures the shared parallel scan with the given placement.
func sharedScanRun(topo *topology.Topology, workers int, placement shared.Placement, totalEntries int64, durSec float64) (hwcounter.Report, error) {
	m, mems, err := sharedMachine(topo, 0)
	if err != nil {
		return hwcounter.Report{}, err
	}
	st, err := shared.NewScanTable(m, mems, placement, 0, totalEntries, 1<<11)
	if err != nil {
		return hwcounter.Report{}, err
	}
	session := hwcounter.Start(m)
	st.RunScans(workers, durSec)
	return session.Report(), nil
}

// speedup guards against division by zero in scalability tables.
func speedup(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

// mops formats a throughput in million operations per second.
func mops(t float64) string { return fmt.Sprintf("%.2f", t/1e6) }

func kops(t float64) string { return fmt.Sprintf("%.2f", t/1e3) }
