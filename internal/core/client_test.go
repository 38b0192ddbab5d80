package core

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"eris/internal/topology"
)

// TestLookupCallAllocs pins the client-call bracket's allocations: a 64-key
// lookup spanning both AEUs of a started engine pays for its pending
// operation, its completion channel and the result slice (3 today), but no
// per-owner frame, per-key owner lookup, per-call timer, owner map or
// per-reply copy. Under the race detector the bound does not hold: the
// call's frames and scratch come from sync.Pools, which race mode empties
// at random, and AllocsPerRun counts every goroutine's allocations. The
// allocs-guards CI step runs the test without -race.
func TestLookupCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	e := newEngine(t, topology.SingleNode(2))
	defer e.Stop()
	if err := e.CreateIndex(idxObj, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(idxObj, 1<<16, func(k uint64) uint64 { return k }); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i) * (1 << 10) // stratified: half the keys per AEU
	}
	ctx := context.Background()
	run := func() {
		kvs, err := e.LookupCtx(ctx, idxObj, keys)
		if err != nil || len(kvs) != len(keys) {
			t.Fatalf("lookup: %d rows, err %v", len(kvs), err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(200, run); avg > 8 {
		t.Fatalf("64-key LookupCtx allocates %.1f times per call, want at most 8", avg)
	}
}

// TestCallStallBound: a call whose owner never answers fails with the
// "timed out" error once it is clientTimeout old, although no call arms a
// timer of its own.
func TestCallStallBound(t *testing.T) {
	old := clientTimeout
	clientTimeout = 150 * time.Millisecond
	defer func() { clientTimeout = old }()
	e := newEngine(t, topology.SingleNode(2))
	defer e.Stop()
	if err := e.CreateIndex(idxObj, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// AEU 1 owns the upper half of the domain; its loop ends here, so the
	// half of the batch it owns is never answered.
	e.aeus[1].Stop()
	start := time.Now()
	_, err := e.LookupCtx(context.Background(), idxObj, []uint64{1, 1<<16 - 1})
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("lookup at a stopped owner = %v, want a timed-out error", err)
	}
	if took < clientTimeout || took > 10*clientTimeout {
		t.Fatalf("stalled call failed after %v, want about %v", took, clientTimeout)
	}
	e.clientMu.Lock()
	left := len(e.pending)
	e.clientMu.Unlock()
	if left != 0 {
		t.Fatalf("%d calls still pending after the sweep", left)
	}
}

// TestStoppedEngineFreedByOneGC: once stopped, an engine that served point
// calls is garbage at the next collection. Nothing global may pin it — a
// sync.Pool field would, for two collections — or a process that opens
// engines one after another (the benchmark ledger's reruns) counts the last
// one's partitions against the next. The finalizer sits on the index's
// metadata, which only the engine references; the engine itself is part of
// reference cycles, which finalizers do not run on.
func TestStoppedEngineFreedByOneGC(t *testing.T) {
	freed := make(chan struct{})
	func() {
		e := newEngine(t, topology.SingleNode(2))
		if err := e.CreateIndex(idxObj, 1<<16); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.LookupCtx(context.Background(), idxObj, []uint64{1, 1<<16 - 1}); err != nil {
			t.Fatal(err)
		}
		e.Stop()
		runtime.SetFinalizer(e.objects[idxObj], func(*objectMeta) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("a stopped engine survived a collection")
	}
}
