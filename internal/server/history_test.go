package server_test

// History-checked e2e for the serving stack: recorded wire clients run a
// concurrent mixed workload — with connections being dropped under them —
// and every response that made it back over the wire must be explainable by
// a sequential execution of the map model. A second test arms the recorder's
// test-only stale-read fault to prove the checker actually has teeth at this
// layer (a checker that never fires proves nothing).

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"eris/internal/client"
	"eris/internal/colstore"
	"eris/internal/faults"
	"eris/internal/histcheck"
	"eris/internal/history"
	"eris/internal/prefixtree"
)

// TestServeHistoryLinearizable runs recorded wire clients against a
// balancing server while the DropConn fault severs connections mid-stream.
// Dropped calls record as Lost (writes) or errors (reads) — both sound for
// the checker — and clients redial and keep going, so the history spans
// connection lifetimes.
func TestServeHistoryLinearizable(t *testing.T) {
	const (
		clients  = 4
		opsPerCl = 150
		seedN    = 4096
	)
	eng, _, addr := startServer(t, 4, 11, true)
	eng.Faults().Arm(faults.DropConn, faults.Rule{After: 20, Every: 40, Limit: 4})

	initial := make([]prefixtree.KV, seedN)
	for k := range initial {
		initial[k] = prefixtree.KV{Key: uint64(k), Value: uint64(k) * 3}
	}

	rec := history.New(clients, 1<<13)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			log := rec.Client(cl)
			rng := rand.New(rand.NewSource(int64(500 + cl)))
			var w *history.WireClient
			dial := func() bool {
				c, err := client.Dial(addr, client.Options{})
				if err != nil {
					return false
				}
				obj, ok := c.Object("kv")
				if !ok {
					c.Close()
					return false
				}
				w = history.NewWireClient(c, obj.ID, log)
				return true
			}
			if !dial() {
				t.Errorf("client %d: initial dial failed", cl)
				return
			}
			key := func() uint64 { return uint64(rng.Intn(seedN)) }
			for i := 0; i < opsPerCl; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				var err error
				switch rng.Intn(8) {
				case 0, 1, 2:
					kvs := make([]prefixtree.KV, 3)
					for j := range kvs {
						kvs[j] = prefixtree.KV{Key: key(), Value: rng.Uint64() % 100000}
					}
					err = w.Upsert(ctx, kvs)
				case 3:
					err = w.Delete(ctx, []uint64{key()})
				case 4:
					lo := key() / 2
					_, err = w.ScanRange(ctx, lo, lo+99, colstore.Predicate{Op: colstore.All})
				default:
					_, err = w.Lookup(ctx, []uint64{key(), key(), key()})
				}
				cancel()
				if err != nil && !dial() {
					// Server unreachable; whatever was recorded still checks.
					return
				}
			}
		}(cl)
	}
	wg.Wait()

	res := histcheck.Check(rec, histcheck.Options{Initial: initial})
	if res.Dropped != 0 {
		t.Fatalf("recorder overflow: %d events dropped", res.Dropped)
	}
	if res.Ops == 0 || res.Scans == 0 {
		t.Fatalf("workload did not cover point ops and scans: %+v", res)
	}
	if len(res.Violations) > 0 {
		path, werr := histcheck.WriteViolations("../../results", "server-e2e", res, histcheck.Options{Initial: initial})
		t.Fatalf("%d linearizability violations over the wire (dump: %s, %v); first: %s",
			len(res.Violations), path, werr, res.Violations[0].Reason)
	}
	if eng.Faults().Injected(faults.DropConn) == 0 {
		t.Fatal("DropConn never fired; the run did not exercise connection loss")
	}
}

// TestServeHistoryCheckerHasTeeth arms the recorder's test-only stale-read
// fault on one wire client: the recorded values diverge from what the engine
// served, and the checker must flag it. This is the falsifiability proof for
// the whole wire-layer harness.
func TestServeHistoryCheckerHasTeeth(t *testing.T) {
	const seedN = 4096
	_, _, addr := startServer(t, 2, 0, false)

	initial := make([]prefixtree.KV, seedN)
	for k := range initial {
		initial[k] = prefixtree.KV{Key: uint64(k), Value: uint64(k) * 3}
	}

	rec := history.New(1, 1<<10)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, _ := c.Object("kv")
	w := history.NewWireClient(c, obj.ID, rec.Client(0))

	ctx := context.Background()
	for _, keys := range [][]uint64{{10, 11}, {20, 21}, {30}} {
		if _, err := w.Lookup(ctx, keys); err != nil {
			t.Fatal(err)
		}
	}

	// Perturb the recorded results of keys 20 and 21 after the server
	// answered: the history now claims values the engine never returned.
	events := rec.Events()
	stale := map[uint32]bool{}
	for _, e := range events {
		if e.Kind == history.Invoke && (e.Key == 20 || e.Key == 21) {
			stale[e.Seq] = true
		}
	}
	for i := range events {
		if e := &events[i]; e.Kind == history.ReturnOK && stale[e.Seq] {
			e.Val, e.Found = e.Val+1, true
		}
	}

	res := histcheck.CheckEvents(events, histcheck.Options{Initial: initial})
	if len(res.Violations) == 0 {
		t.Fatal("stale reads recorded but checker reported no violations: the harness has no teeth")
	}
	for _, v := range res.Violations {
		if v.Key != 20 && v.Key != 21 {
			t.Fatalf("violation on unexpected key %d: %s", v.Key, v.Reason)
		}
	}
}
