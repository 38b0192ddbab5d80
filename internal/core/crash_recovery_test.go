package core_test

// Crash/recovery property tests: a recorded concurrent workload runs on a
// durable engine (SyncWrites on) while the balancer cycles and periodic
// fuzzy checkpoints land; the engine is then hard-stopped at a
// fault-chosen log append with torn-write tails armed — no drain, no
// final checkpoint — and reopened from disk. Every write acknowledged
// before the crash must be visible to post-recovery reads; writes in
// flight at the crash may resolve either way. Both halves of the run feed
// one linearizability history, so the checker enforces exactly that.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"eris/internal/balance"
	"eris/internal/colstore"
	"eris/internal/core"
	"eris/internal/durable"
	"eris/internal/faults"
	"eris/internal/histcheck"
	"eris/internal/history"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

const (
	crIdx routing.ObjectID = 7
	crCol routing.ObjectID = 8

	crDomain   = 4000
	crInitialN = 1500
	crColRows  = 1000
)

func crConfig(mgr *durable.Manager, inj *faults.Injector) core.Config {
	cfg := core.Config{
		Topology: topology.SingleNode(4),
		Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
		Column:   colstore.Config{ChunkEntries: 64},
		Balance: balance.Config{
			SampleIntervalSec: 20e-6,
			Threshold:         0.2,
			AckTimeout:        250 * time.Millisecond,
		},
		Durable:         mgr,
		CheckpointEvery: 50 * time.Millisecond,
	}
	cfg.Routing.Faults = inj
	return cfg
}

// buildDurableEngine creates, loads and watches the standard two objects.
func buildDurableEngine(t *testing.T, mgr *durable.Manager, inj *faults.Injector) *core.Engine {
	t.Helper()
	e, err := core.New(crConfig(mgr, inj))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(crIdx, crDomain); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(crIdx, crInitialN, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Watch(crIdx, balance.OneShot{}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateColumn(crCol); err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, crColRows)
	for i := range vals {
		vals[i] = uint64(i)
	}
	e.AEUs()[0].Partition(crCol).Col.Append(0, vals)
	if err := e.Watch(crCol, balance.OneShot{}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCrashRecoveryHistory(t *testing.T) {
	var colSum uint64
	for v := uint64(0); v < crColRows; v++ {
		colSum += v
	}
	initial := make([]prefixtree.KV, crInitialN)
	for k := range initial {
		initial[k] = prefixtree.KV{Key: uint64(k), Value: uint64(k)}
	}

	// Each subtest crashes at a different append count: early (during the
	// first balancing storm), mid-run, and late (possibly after the
	// workload — then the crash is a plain hard stop).
	for _, after := range []int{100, 1200, 6000} {
		after := after
		t.Run(fmt.Sprintf("after%d", after), func(t *testing.T) {
			const (
				clients   = 3
				opsPerCl  = 300
				logEvents = 1 << 14
			)
			dir := t.TempDir()
			inj := faults.New(int64(42 + after))
			mgr, err := durable.Open(durable.Options{
				Dir: dir, SyncWrites: true, Faults: inj, TearSeed: int64(after),
			})
			if err != nil {
				t.Fatal(err)
			}
			e := buildDurableEngine(t, mgr, inj)
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			inj.Arm(faults.Crash, faults.Rule{After: after, Every: 1, Limit: 1})
			inj.Arm(faults.TornWrite, faults.Rule{Every: 1})
			// Transient write failures along the way: the group-commit
			// writer must retry the segment in place, never drop it and
			// advance the durable watermark past the lost records.
			inj.Arm(faults.FailWrite, faults.Rule{Every: 40, Limit: 25})

			rec := history.New(clients+1, logEvents)
			var wg sync.WaitGroup
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(cl int) {
					defer wg.Done()
					log := rec.Client(cl)
					idxc := history.NewCoreClient(e, crIdx, log)
					colc := history.NewCoreClient(e, crCol, log)
					rng := rand.New(rand.NewSource(int64(1000 + cl)))
					key := func() uint64 {
						if rng.Intn(10) < 7 {
							return uint64(rng.Intn(600)) // hot range on AEU 0
						}
						return uint64(rng.Intn(2400))
					}
					for i := 0; i < opsPerCl; i++ {
						ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
						switch rng.Intn(10) {
						case 0, 1, 2, 3:
							kvs := make([]prefixtree.KV, 4)
							for j := range kvs {
								kvs[j] = prefixtree.KV{Key: key(), Value: rng.Uint64() % 100000}
							}
							idxc.Upsert(ctx, kvs)
						case 4:
							idxc.Delete(ctx, []uint64{key(), key()})
						case 5:
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

			// Drive skew so balance cycles run, until the crash fault fires
			// (or the workload completes first — then crash anyway).
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			p0 := e.AEUs()[0].Partition(crIdx)
			deadline := time.Now().Add(90 * time.Second)
		driving:
			for !mgr.CrashRequested() {
				select {
				case <-done:
					break driving
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("workload never finished and crash fault never fired")
				}
				for i := 0; i < 200; i++ {
					p0.RecordAccess()
				}
				time.Sleep(time.Millisecond)
			}
			e.CrashStop()
			<-done

			// Reopen the directory and recover.
			mgr2, err := durable.Open(durable.Options{Dir: dir, SyncWrites: true})
			if err != nil {
				t.Fatal(err)
			}
			recovered, err := mgr2.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if recovered == nil {
				t.Fatal("Recover found no checkpoint (Start writes one)")
			}
			e2, err := core.New(crConfig(mgr2, nil))
			if err != nil {
				t.Fatal(err)
			}
			if err := e2.Restore(recovered); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if err := e2.CheckInvariants(); err != nil {
				t.Fatalf("invariants after restore: %v", err)
			}
			if err := e2.Start(); err != nil {
				t.Fatal(err)
			}

			// Post-recovery reads land in the same history: every acked
			// pre-crash write must be explainable to the checker.
			log := rec.Client(clients)
			idxc := history.NewCoreClient(e2, crIdx, log)
			colc := history.NewCoreClient(e2, crCol, log)
			for lo := uint64(0); lo < crDomain; lo += 64 {
				keys := make([]uint64, 64)
				for j := range keys {
					keys[j] = lo + uint64(j)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				idxc.Lookup(ctx, keys)
				cancel()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			colc.ColScan(ctx, colstore.Predicate{Op: colstore.All})
			cancel()

			if err := e2.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			res := histcheck.Check(rec, histcheck.Options{
				Initial:      initial,
				ColumnStatic: true,
				ColumnBaseline: map[colstore.Predicate]histcheck.Agg{
					{Op: colstore.All}: {Matched: crColRows, Sum: colSum},
				},
			})
			if res.Dropped != 0 {
				t.Fatalf("recorder overflow: %d events dropped", res.Dropped)
			}
			if len(res.Violations) > 0 {
				path, werr := histcheck.WriteViolations("../../results", "crash-recovery", res, histcheck.Options{Initial: initial})
				t.Fatalf("%d durability violations (dump: %s, %v); first: %s",
					len(res.Violations), path, werr, res.Violations[0].Reason)
			}
			st := mgr2.Stats()
			t.Logf("crash after=%d: replayed %d records (%d bytes), torn tails %d, recovery %.1fms",
				after, st.ReplayRecords, st.ReplayBytes, st.TornTails,
				float64(st.RecoveryNS)/1e6)
		})
	}
}

// TestCheckpointDuringBalance hammers explicit checkpoints while both
// balancers actively move data, then recovers from the last one and
// verifies invariants and exact tuple-count conservation.
func TestCheckpointDuringBalance(t *testing.T) {
	dir := t.TempDir()
	mgr, err := durable.Open(durable.Options{Dir: dir, SyncWrites: false})
	if err != nil {
		t.Fatal(err)
	}
	e := buildDurableEngine(t, mgr, nil)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	// Writer keeps the WAL busy while checkpoints cut.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			kvs := []prefixtree.KV{
				{Key: uint64(rng.Intn(crInitialN)), Value: uint64(i)},
			}
			_ = e.UpsertCtx(context.Background(), crIdx, kvs)
		}
	}()

	p0 := e.AEUs()[0].Partition(crIdx)
	deadline := time.Now().Add(60 * time.Second)
	ckpts := 0
	for ckpts < 15 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d checkpoints before deadline", ckpts)
		}
		for i := 0; i < 500; i++ {
			p0.RecordAccess()
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", ckpts, err)
		}
		ckpts++
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Counted on the stopped engine: while the balancer runs, a range
	// between its extraction and its link is in neither tree.
	wantIdx, err := e.TupleCount(crIdx)
	if err != nil {
		t.Fatal(err)
	}
	wantCol, err := e.TupleCount(crCol)
	if err != nil {
		t.Fatal(err)
	}

	mgr2, err := durable.Open(durable.Options{Dir: dir, SyncWrites: false})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := mgr2.Recover()
	if err != nil || recovered == nil {
		t.Fatalf("Recover: %v (%v)", err, recovered)
	}
	e2, err := core.New(crConfig(mgr2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(recovered); err != nil {
		t.Fatal(err)
	}
	if err := e2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after restore: %v", err)
	}
	gotIdx, err := e2.TupleCount(crIdx)
	if err != nil {
		t.Fatal(err)
	}
	gotCol, err := e2.TupleCount(crCol)
	if err != nil {
		t.Fatal(err)
	}
	if gotIdx != wantIdx || gotCol != wantCol {
		t.Fatalf("tuple counts not conserved: index %d->%d, column %d->%d",
			wantIdx, gotIdx, wantCol, gotCol)
	}
	mgr2.Close()
}
