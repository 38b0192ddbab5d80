package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"eris/internal/aeu"
	"eris/internal/balance"
	"eris/internal/colstore"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
	"eris/internal/workload"
)

const (
	idxObj routing.ObjectID = 1
	colObj routing.ObjectID = 2
)

func newEngine(t testing.TB, topo *topology.Topology) *Engine {
	t.Helper()
	e, err := New(Config{
		Topology: topo,
		Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
		Column:   colstore.Config{ChunkEntries: 1 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineLifecycleAndClientOps(t *testing.T) {
	e := newEngine(t, topology.SingleNode(4))
	defer e.Stop()
	if err := e.CreateIndex(idxObj, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateColumn(colObj); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(idxObj, 1000, func(k uint64) uint64 { return k * 2 }); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadColumnUniform(colObj, 500, func(a int, i int64) uint64 { return uint64(i) }); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("double start accepted")
	}

	// Lookup found and missing keys.
	kvs, err := e.LookupCtx(context.Background(), idxObj, []uint64{5, 999, 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Key != 5 || kvs[0].Value != 10 || kvs[1].Key != 999 {
		t.Fatalf("lookup = %+v", kvs)
	}

	// Upsert then re-read.
	if err := e.UpsertCtx(context.Background(), idxObj, []prefixtree.KV{{Key: 1500, Value: 77}, {Key: 5, Value: 11}}); err != nil {
		t.Fatal(err)
	}
	kvs, err = e.LookupCtx(context.Background(), idxObj, []uint64{5, 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0].Value != 11 || kvs[1].Value != 77 {
		t.Fatalf("after upsert = %+v", kvs)
	}

	// Column scan: values 0..499 per AEU, 4 AEUs.
	agg, err := e.ScanCtx(context.Background(), colObj, colstore.Predicate{Op: colstore.Less, Operand: 100})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Matched != 400 {
		t.Fatalf("scan matched %d", agg.Matched)
	}

	// Index range scan.
	ragg, err := e.ScanRangeCtx(context.Background(), idxObj, 10, 19, colstore.Predicate{Op: colstore.All})
	if err != nil {
		t.Fatal(err)
	}
	if ragg.Matched != 10 {
		t.Fatalf("range scan matched %d", ragg.Matched)
	}

	// Row-returning index scan (query-processing primitive).
	rows, err := e.ScanRangeRowsCtx(context.Background(), idxObj, 10, 19, colstore.Predicate{Op: colstore.All}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || rows[0].Key != 10 || rows[0].Value != 20 || rows[9].Key != 19 {
		t.Fatalf("rows = %+v", rows)
	}
	// The limit caps the materialized result.
	rows, err = e.ScanRangeRowsCtx(context.Background(), idxObj, 0, 999, colstore.Predicate{Op: colstore.All}, 5)
	if err != nil || len(rows) != 5 {
		t.Fatalf("limited rows = %d, %v", len(rows), err)
	}
	if _, err := e.ScanRangeRowsCtx(context.Background(), idxObj, 0, 9, colstore.Predicate{}, 0); err == nil {
		t.Fatal("zero limit accepted")
	}
	if _, err := e.ScanRangeRowsCtx(context.Background(), colObj, 0, 9, colstore.Predicate{}, 5); err == nil {
		t.Fatal("rows scan on column accepted")
	}
	e.Stop()
	e.Stop() // idempotent
}

func TestEngineErrors(t *testing.T) {
	e := newEngine(t, topology.SingleNode(2))
	defer e.Stop()
	if err := e.CreateIndex(idxObj, 1); err == nil {
		t.Error("tiny domain accepted")
	}
	if err := e.CreateIndex(idxObj, 1<<40); err == nil {
		t.Error("domain beyond key bits accepted")
	}
	if err := e.CreateIndex(idxObj, 1000); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(idxObj, 1000); err == nil {
		t.Error("duplicate object accepted")
	}
	if _, err := e.LookupCtx(context.Background(), idxObj, []uint64{1}); err == nil {
		t.Error("lookup before start accepted")
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateColumn(colObj); err == nil {
		t.Error("DDL after start accepted")
	}
	if _, err := e.LookupCtx(context.Background(), colObj, []uint64{1}); err == nil {
		t.Error("lookup on unknown object accepted")
	}
	if _, err := e.LookupCtx(context.Background(), idxObj, []uint64{5000}); err == nil {
		t.Error("out-of-domain key accepted")
	}
}

// TestScanRetryNeverReturnsUntrustedAggregate feeds the retry loop shared
// by column and range scans an attempt that never sees a quiet window, as
// a fan-out that always overlaps a transfer would: the scan must fail
// instead of returning the overlapped aggregate, and a ctx that ends
// mid-retry must fail it with ErrDeadlineExceeded.
func TestScanRetryNeverReturnsUntrustedAggregate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration // 0 = no deadline
	}{
		{"attempts_exhausted", 0},
		{"deadline_mid_retry", 2 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			if tc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			attempts := 0
			agg, err := retryScan(ctx, "test scan", func() (ScanAggregate, bool, error) {
				attempts++
				return ScanAggregate{Matched: 7, Sum: 7}, false, nil
			})
			if err == nil || agg != (ScanAggregate{}) {
				t.Fatalf("never-quiet scan returned (%+v, %v), want an error and no value", agg, err)
			}
			if tc.timeout == 0 {
				if errors.Is(err, ErrDeadlineExceeded) || attempts != scanRetries+1 {
					t.Fatalf("err %v after %d attempts, want the retry budget of %d spent", err, attempts, scanRetries+1)
				}
				return
			}
			if !errors.Is(err, ErrDeadlineExceeded) || attempts > scanRetries {
				t.Fatalf("err %v after %d attempts, want ErrDeadlineExceeded before the budget ran out", err, attempts)
			}
		})
	}
}

func TestGeneratorWorkload(t *testing.T) {
	e := newEngine(t, topology.SingleNode(4))
	defer e.Stop()
	const domain = 1 << 14
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(idxObj, domain, nil); err != nil {
		t.Fatal(err)
	}
	e.SetGenerators(func(i int) aeu.Generator {
		return &LookupGenerator{
			Object: idxObj, Keys: workload.Uniform{Domain: domain},
			Batch: 32, DurationSec: 0.001,
		}
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.WaitVirtual(0.0015, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	if ops := e.TotalOps(); ops == 0 {
		t.Fatal("no ops executed")
	}
}

func TestThroughputEpoch(t *testing.T) {
	e := newEngine(t, topology.Intel())
	defer e.Stop()
	const domain = 1 << 14
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(idxObj, domain, nil); err != nil {
		t.Fatal(err)
	}
	e.SetGenerators(func(i int) aeu.Generator {
		return &LookupGenerator{
			Object: idxObj, Keys: workload.Uniform{Domain: domain},
			Batch: 32, DurationSec: 0.001,
		}
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ep := e.Machine().StartEpoch()
	if err := e.WaitVirtual(0.001, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	tput := ep.Throughput()
	e.Stop()
	if tput <= 0 {
		t.Fatalf("throughput = %f", tput)
	}
	// 40 cores on the Intel machine doing batched local-ish lookups should
	// reach at least a million ops per simulated second.
	if tput < 1e6 {
		t.Errorf("throughput suspiciously low: %.0f ops/s", tput)
	}
}

func TestBalancerIntegration(t *testing.T) {
	e := newEngine(t, topology.SingleNode(8))
	defer e.Stop()
	const domain = 1 << 14
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(idxObj, domain, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Watch(idxObj, balance.OneShot{}); err != nil {
		t.Fatal(err)
	}
	// Hot range on the first quarter of the domain: AEUs 0,1 overloaded.
	e.SetGenerators(func(i int) aeu.Generator {
		return &LookupGenerator{
			Object: idxObj, Keys: workload.HotRange{Lo: 0, Hi: domain / 4},
			Batch: 32, DurationSec: 0.1,
		}
	})
	// Short balancer sampling so cycles happen within the tiny run.
	e.balancer = balance.New(e.router, e.aeus, balance.Config{
		SampleIntervalSec: 0.002, Threshold: 0.2,
	})
	for _, a := range e.aeus {
		a.SetEpochDone(e.balancer.Ack)
	}
	e.balancer.Watch(idxObj, domain, balance.AccessFrequency, balance.OneShot{})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// The real-time bound only guards against a stalled virtual clock; under
	// -race on a loaded machine the 0.02 virtual seconds take minutes.
	if err := e.WaitVirtual(0.02, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	cycles := e.balancer.Cycles()
	if len(cycles) == 0 {
		t.Fatal("balancer never triggered despite skewed workload")
	}
	// After rebalancing, the partitioning must still be consistent: every
	// key is found exactly where the routing table says.
	entries := e.router.OwnerEntries(idxObj)
	if len(entries) != 8 {
		t.Fatalf("entries = %+v", entries)
	}
	var total int64
	for _, a := range e.aeus {
		total += a.Partition(idxObj).Tree.Count()
	}
	if total != domain {
		t.Fatalf("keys after rebalance = %d, want %d", total, domain)
	}
	// Partition bounds and routing table agree.
	for i, a := range e.aeus {
		p := a.Partition(idxObj)
		if p.Lo != entries[i].Low {
			t.Errorf("aeu %d: Lo %d != table %d", i, p.Lo, entries[i].Low)
		}
	}
}

func TestWatchErrors(t *testing.T) {
	e := newEngine(t, topology.SingleNode(2))
	defer e.Stop()
	if err := e.Watch(99, nil); err == nil {
		t.Error("watch of unknown object accepted")
	}
}

func TestDomainAndKind(t *testing.T) {
	e := newEngine(t, topology.SingleNode(2))
	defer e.Stop()
	if err := e.CreateIndex(idxObj, 4096); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateColumn(colObj); err != nil {
		t.Fatal(err)
	}
	if d, err := e.Domain(idxObj); err != nil || d != 4096 {
		t.Errorf("domain = %d, %v", d, err)
	}
	if _, err := e.Domain(colObj); err == nil {
		t.Error("Domain on column accepted")
	}
	if k, err := e.ObjectKind(colObj); err != nil || k != routing.SizePartitioned {
		t.Errorf("kind = %v, %v", k, err)
	}
}
