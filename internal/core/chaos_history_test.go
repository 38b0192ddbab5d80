package core_test

// Linearizability chaos: a recorded concurrent workload runs while every
// engine fault kind is injected into active range AND size balancing, and
// every client-visible response must afterwards be explainable by a
// sequential execution of the map model (internal/histcheck). This is the
// teeth behind the fail-soft claims: not just "survives and conserves
// tuples" but "never served a wrong answer while doing so".
//
// The test lives outside package core because internal/history wraps the
// core client API (importing it from package core would cycle).

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"eris/internal/balance"
	"eris/internal/colstore"
	"eris/internal/core"
	"eris/internal/faults"
	"eris/internal/histcheck"
	"eris/internal/history"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// TestChaosLinearizability matches the chaos suite's setup (same seed,
// same fault rules, skewed index + fully skewed column so both balancers
// keep cycling) and layers a recorded workload on top. Any violation is
// dumped, minimized, to results/ for replay.
func TestChaosLinearizability(t *testing.T) {
	const (
		idx routing.ObjectID = 7
		col routing.ObjectID = 8

		domain   = 4000
		initialN = 2000 // keys [0, initialN) preloaded with value = key
		colRows  = 2000 // column rows, all starting on AEU 0

		clients   = 5
		opsPerCl  = 800
		logEvents = 1 << 15
	)
	var colSum uint64
	for v := uint64(0); v < colRows; v++ {
		colSum += v
	}
	initial := make([]prefixtree.KV, initialN)
	for k := range initial {
		initial[k] = prefixtree.KV{Key: uint64(k), Value: uint64(k)}
	}

	for _, kind := range faults.Kinds() {
		kind := kind
		if kind == faults.DropConn || kind == faults.SlowWrite {
			// Wire-server faults; internal/server's history e2e covers the
			// serving stack.
			continue
		}
		if kind == faults.TornWrite || kind == faults.FailFsync || kind == faults.FailWrite || kind == faults.Crash {
			// Durability faults; only consulted with a data directory. The
			// crash-recovery history test covers them.
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			e, err := core.New(core.Config{
				Topology: topology.SingleNode(4),
				Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
				Column:   colstore.Config{ChunkEntries: 64},
				Balance: balance.Config{
					SampleIntervalSec: 20e-6,
					Threshold:         0.2,
					AckTimeout:        250 * time.Millisecond,
				},
				Routing: routing.Config{Faults: faults.New(42)},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.CreateIndex(idx, domain); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadIndexDense(idx, initialN, nil); err != nil {
				t.Fatal(err)
			}
			if err := e.Watch(idx, balance.OneShot{}); err != nil {
				t.Fatal(err)
			}
			if err := e.CreateColumn(col); err != nil {
				t.Fatal(err)
			}
			vals := make([]uint64, colRows)
			for i := range vals {
				vals[i] = uint64(i)
			}
			e.AEUs()[0].Partition(col).Col.Append(0, vals)
			if err := e.Watch(col, balance.OneShot{}); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			defer e.Stop()

			rule := faults.Rule{Every: 2, Limit: 6}
			if kind == faults.FailAlloc {
				rule = faults.Rule{Every: 1, Limit: 16}
			}
			e.Faults().Arm(kind, rule)

			// Recorded workload: every client mixes writes, deletes, point
			// reads, range-scan aggregates and column scans on a key space
			// skewed onto AEU 0, so range cycles keep coming while the
			// column drains off AEU 0. Each op carries its own deadline —
			// expiries record as Lost (writes) or drop (reads), both of
			// which the checker treats soundly.
			rec := history.New(clients, logEvents)
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					log := rec.Client(cl)
					idxc := history.NewCoreClient(e, idx, log)
					colc := history.NewCoreClient(e, col, log)
					rng := rand.New(rand.NewSource(int64(1000 + cl)))
					key := func() uint64 {
						if rng.Intn(10) < 7 {
							return uint64(rng.Intn(600)) // hot range on AEU 0
						}
						return uint64(rng.Intn(2400))
					}
					for i := 0; i < opsPerCl; i++ {
						ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
						switch rng.Intn(12) {
						case 0, 1, 2, 3:
							kvs := make([]prefixtree.KV, 4)
							for j := range kvs {
								kvs[j] = prefixtree.KV{Key: key(), Value: rng.Uint64() % 100000}
							}
							idxc.Upsert(ctx, kvs)
						case 4:
							idxc.Delete(ctx, []uint64{key(), key()})
						case 5:
							lo := uint64(rng.Intn(2000))
							idxc.ScanRange(ctx, lo, lo+199, colstore.Predicate{Op: colstore.All})
						case 6:
							colc.ColScan(ctx, colstore.Predicate{Op: colstore.All})
						default:
							keys := make([]uint64, 4)
							for j := range keys {
								keys[j] = key()
							}
							idxc.Lookup(ctx, keys)
						}
						cancel()
					}
				}(cl)
			}

			// Drive sampling-window skew until the fault fired and at least
			// one balance cycle completed despite it, like the chaos suite.
			p0 := e.AEUs()[0].Partition(idx)
			mgr := e.Memory().Node(0)
			deadline := time.Now().Add(90 * time.Second)
			for {
				rep := e.Balancer().Report()
				if e.Faults().Injected(kind) > 0 && rep.Completed >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("no recovery: injected=%d report=%+v", e.Faults().Injected(kind), rep)
					break
				}
				for i := 0; i < 200; i++ {
					p0.RecordAccess()
				}
				if kind == faults.FailAlloc {
					mgr.Free(mgr.Alloc(1 << 12))
				}
				time.Sleep(time.Millisecond)
			}
			wg.Wait()
			e.Faults().DisarmAll()
			e.Stop()
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			res := histcheck.Check(rec, histcheck.Options{
				Initial:      initial,
				ColumnStatic: true,
				ColumnBaseline: map[colstore.Predicate]histcheck.Agg{
					{Op: colstore.All}: {Matched: colRows, Sum: colSum},
				},
			})
			// Overflowed logs would hide committed writes from the checker
			// and turn later reads into false alarms; the logs are sized so
			// this never happens.
			if res.Dropped != 0 {
				t.Fatalf("recorder overflow: %d events dropped, checking would be unsound", res.Dropped)
			}
			if res.Ops == 0 || res.Scans == 0 || res.ColScans == 0 {
				t.Fatalf("workload did not cover all op classes: %+v", res)
			}
			if len(res.Violations) > 0 {
				path, werr := histcheck.WriteViolations("../../results", "chaos-"+kind.String(), res, histcheck.Options{Initial: initial})
				t.Fatalf("%d linearizability violations (dump: %s, %v); first: %s",
					len(res.Violations), path, werr, res.Violations[0].Reason)
			}
		})
	}
}
