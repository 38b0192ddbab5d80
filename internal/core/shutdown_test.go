package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"eris/internal/prefixtree"
	"eris/internal/topology"
)

// TestStopWithInFlightOps is the shutdown-race regression test: Stop must
// race cleanly with synchronous client calls. Every in-flight or subsequent
// call either completes normally or returns ErrClosed — never hangs, never
// panics, never leaks a pending operation.
func TestStopWithInFlightOps(t *testing.T) {
	e := newEngine(t, topology.SingleNode(4))
	if err := e.CreateIndex(idxObj, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(idxObj, 4096, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := []uint64{uint64(w), uint64(w) + 100, uint64(w) + 1000}
			for i := 0; ; i++ {
				var err error
				switch i % 3 {
				case 0:
					_, err = e.LookupCtx(context.Background(), idxObj, keys)
				case 1:
					err = e.UpsertCtx(context.Background(), idxObj, []prefixtree.KV{{Key: uint64(w*1000 + i), Value: 1}})
				default:
					err = e.DeleteCtx(context.Background(), idxObj, []uint64{uint64(w*1000 + i - 1)})
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- err
					}
					return
				}
			}
		}(w)
	}

	// Let the ops flow, then pull the rug.
	time.Sleep(10 * time.Millisecond)
	e.Stop()

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("client calls still blocked 30s after Stop")
	}
	close(errs)
	for err := range errs {
		t.Errorf("in-flight op failed with %v, want ErrClosed", err)
	}

	// New calls are refused immediately.
	if _, err := e.LookupCtx(context.Background(), idxObj, []uint64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Lookup after Stop = %v, want ErrClosed", err)
	}
	if err := e.UpsertCtx(context.Background(), idxObj, []prefixtree.KV{{Key: 1, Value: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Upsert after Stop = %v, want ErrClosed", err)
	}

	// Nothing leaked.
	e.clientMu.Lock()
	leaked := len(e.pending)
	e.clientMu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d pending operations leaked past Stop", leaked)
	}
}

// TestStopConcurrent checks Stop is idempotent and safe to call from many
// goroutines at once.
func TestStopConcurrent(t *testing.T) {
	e := newEngine(t, topology.SingleNode(4))
	if err := e.CreateIndex(idxObj, 1<<12); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Stop()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Stops deadlocked")
	}
	e.Stop() // and once more after the fact
}
