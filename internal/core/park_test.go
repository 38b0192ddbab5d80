package core

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"eris/internal/aeu"
	"eris/internal/durable"
	"eris/internal/topology"
	"eris/internal/workload"
)

// parksOf reads aeu.<id>.parks for every AEU of e.
func parksOf(e *Engine) []int64 {
	snap := e.MetricsSnapshot()
	out := make([]int64, e.NumAEUs())
	for i := range out {
		out[i] = snap.Counter("aeu." + strconv.Itoa(i) + ".parks")
	}
	return out
}

// waitAllParked blocks until every AEU has parked at least once more than
// in since: with no work anywhere that means every loop is in its
// park-timeout-park cycle, blocked far more often than not.
func waitAllParked(t *testing.T, e *Engine, since []int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		idle := true
		for i, p := range parksOf(e) {
			if p <= since[i] {
				idle = false
			}
		}
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("not every AEU parked within 10s: parks %v (before: %v)", parksOf(e), since)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStopWithEveryAEUParked: Stop and CrashStop must return promptly when
// every loop is blocked on its inbox, and leave no goroutine behind — AEU
// loops, log writers, the checkpoint ticker.
func TestStopWithEveryAEUParked(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(e *Engine)
	}{
		{"stop", (*Engine).Stop},
		{"crash_stop", (*Engine).CrashStop},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			mgr, err := durable.Open(durable.Options{Dir: t.TempDir(), SyncWrites: true})
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(Config{
				Topology: topology.SingleNode(8), Durable: mgr,
				CheckpointEvery: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.CreateIndex(idxObj, 1<<12); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			waitAllParked(t, e, make([]int64, e.NumAEUs()))

			stopped := make(chan struct{})
			go func() { tc.stop(e); close(stopped) }()
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("engine with every AEU parked did not stop within 10s")
			}
			mgr.Close()

			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("goroutines leaked: %d at baseline, %d now\n%s",
						baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestLiveGeneratorKeepsEveryAEUPolling: the skew barrier gates generation
// on the slowest clock, so while any generator in the engine lives no AEU
// may park — not even one whose own generator is exhausted — or the run
// would crawl at one park timeout per idle step. One AEU's workload ends
// almost at once, the others' never does; the virtual wait must complete
// as before and nobody may have parked.
func TestLiveGeneratorKeepsEveryAEUPolling(t *testing.T) {
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
		g := &LookupGenerator{
			Object: idxObj, Keys: workload.Uniform{Domain: domain},
			Batch: 32, DurationSec: 3600,
		}
		if i == 0 {
			g.DurationSec = 0.0001
		}
		return g
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := e.WaitVirtual(0.003, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	t.Logf("0.003 virtual seconds took %v", time.Since(start))
	for i, p := range parksOf(e) {
		if p != 0 {
			t.Errorf("aeu %d parked %d times while generators were live", i, p)
		}
	}
}
