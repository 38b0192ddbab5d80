package aeu

// Wake-protocol tests at the AEU level: a real Run goroutine that parks
// whenever it is idle, driven through each of its wake sources in turn by
// closed-loop producers. Closed loop is what gives the tests teeth: every
// producer waits for the effect of its own action before the next one, so
// the AEU goes idle (and parks) between actions and each action has to wake
// it. Run with -race -cpu 2 (ci.yml does). The strict no-lost-wake-up test,
// with a park timeout longer than the test itself, is
// routing.TestParkLosesNoWakeup; here the production 1 ms timeout stays in
// force and a wake-up it had to deliver shows in aeu.<id>.park_timeouts.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eris/internal/command"
	"eris/internal/durable"
	"eris/internal/faults"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

const (
	parkProducers = 4
	parkRounds    = 1500
)

// runLoop starts a's loop and returns a function that stops it and waits
// for the goroutine to exit.
func runLoop(t *testing.T, a *AEU) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.Run()
	}()
	return func() {
		a.Stop()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("AEU loop did not exit within 10s of Stop")
		}
	}
}

// produce runs parkProducers goroutines, each calling act(producer, round)
// parkRounds times with a random pause before each call so the actions land
// in every phase of the owner's spin-then-park cycle. act must block until
// its own effect is visible.
func produce(t *testing.T, act func(p, round int)) {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < parkProducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			for i := 0; i < parkRounds; i++ {
				// Half the pauses are short (the action finds the owner still
				// spinning), half long enough for it to have parked.
				pause := rng.Intn(16)
				if rng.Intn(2) == 0 {
					pause = 64 + rng.Intn(128)
				}
				for ; pause > 0; pause-- {
					runtime.Gosched()
				}
				act(p, i)
			}
		}(p)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("producers stuck: an action's effect never became visible")
	}
}

// checkParkCounters asserts the owner really parked between actions and
// that the timeout delivered under 1 % of its wake-ups.
func checkParkCounters(t *testing.T, a *AEU) {
	t.Helper()
	parks, timeouts := a.parks.Load(), a.parkTimeouts.Load()
	t.Logf("aeu %d: %d parks, %d wake-ups delivered by the timeout", a.ID, parks, timeouts)
	if parks < parkRounds/10 {
		t.Errorf("only %d parks over %d closed-loop rounds: the owner hardly ever went idle between actions", parks, parkRounds)
	}
	if timeouts*100 >= parks {
		t.Errorf("the timeout delivered %d of %d wake-ups (>= 1 %%): producers are not waking the owner", timeouts, parks)
	}
}

// replies counts client replies per tag; wait blocks until tag's count
// reaches n.
type replies struct {
	n [parkProducers]atomic.Int64
}

func (r *replies) callback(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
	r.n[tag].Add(1)
}

func (r *replies) wait(tag, n int) {
	for r.n[tag].Load() < int64(n) {
		runtime.Gosched()
	}
}

func TestParkWakeSources(t *testing.T) {
	lookup := func(h *harness, rep *replies, keys []uint64) func(p, round int) {
		return func(p, round int) {
			h.router.Inject(0, &command.Command{
				Op: command.OpLookup, Object: uint32(testObj),
				ReplyTo: ClientReply, Tag: uint64(p), Keys: keys,
			})
			rep.wait(p, round+1)
		}
	}

	t.Run("append", func(t *testing.T) {
		h := newHarness(t, topology.SingleNode(1), 1, 1000)
		a, rep := h.aeus[0], &replies{}
		a.SetClientResult(rep.callback)
		stop := runLoop(t, a)
		produce(t, lookup(h, rep, []uint64{1, 2, 3}))
		stop()
		checkParkCounters(t, a)
		if st := h.router.Inbox(0).Stats(); st.Overflows != 0 {
			t.Fatalf("inbox stats %+v: small commands must take the descriptor path", st)
		}
	})

	t.Run("overflow", func(t *testing.T) {
		// A 64-key command never fits a 128-byte buffer: every append takes
		// the overflow queue.
		h := newHarnessRouting(t, topology.SingleNode(1), 1, 1000, routing.Config{InBufBytes: 128})
		a, rep := h.aeus[0], &replies{}
		a.SetClientResult(rep.callback)
		keys := make([]uint64, 64)
		for i := range keys {
			keys[i] = uint64(i)
		}
		stop := runLoop(t, a)
		produce(t, lookup(h, rep, keys))
		stop()
		checkParkCounters(t, a)
		if st := h.router.Inbox(0).Stats(); st.Overflows != parkProducers*parkRounds {
			t.Fatalf("inbox overflows = %d, want every one of the %d appends", st.Overflows, parkProducers*parkRounds)
		}
	})

	// A transfer's landing is visible through the range-transfer bracket:
	// the receiver releases the source partition's in-flight slot.
	transferSource := func(stalled bool) func(t *testing.T) {
		return func(t *testing.T) {
			var rcfg routing.Config
			if stalled {
				rcfg.Faults = faults.New(1)
				rcfg.Faults.Arm(faults.StallTransfer, faults.Rule{Every: 1})
			}
			h := newHarnessRouting(t, topology.SingleNode(1), 1, 1<<20, rcfg)
			a := h.aeus[0]
			var src [parkProducers]Partition
			stop := runLoop(t, a)
			produce(t, func(p, round int) {
				key := uint64(p*parkRounds + round)
				src[p].inFlight.Add(1)
				a.deliverTransfer(transfer{
					obj: testObj, from: 0, lo: key, hi: key, src: &src[p],
					kvs: []prefixtree.KV{{Key: key, Value: key + 1}},
				})
				for src[p].inFlight.Load() != 0 {
					runtime.Gosched()
				}
			})
			stop()
			checkParkCounters(t, a)
			if got := a.Partition(testObj).Tree.Count(); got != parkProducers*parkRounds {
				t.Fatalf("tree holds %d keys, want every one of the %d transferred", got, parkProducers*parkRounds)
			}
			if stalled && rcfg.Faults.Injected(faults.StallTransfer) != parkProducers*parkRounds {
				t.Fatalf("stalled %d transfers, want all %d", rcfg.Faults.Injected(faults.StallTransfer), parkProducers*parkRounds)
			}
		}
	}
	t.Run("transfer", transferSource(false))
	t.Run("stalled_transfer", transferSource(true))

	openWAL := func(t *testing.T, a *AEU) *durable.Manager {
		mgr, err := durable.Open(durable.Options{Dir: t.TempDir(), SyncWrites: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mgr.Close() })
		a.SetWAL(mgr.Log(int(a.ID)))
		return mgr
	}

	t.Run("checkpoint_request", func(t *testing.T) {
		h := newHarness(t, topology.SingleNode(1), 1, 1000)
		a := h.aeus[0]
		openWAL(t, a)
		stop := runLoop(t, a)
		// The engine issues one request at a time (ckptMu); so do we.
		var one sync.Mutex
		produce(t, func(p, round int) {
			one.Lock()
			defer one.Unlock()
			req := a.RequestCheckpoint()
			select {
			case <-req.Done:
			case <-time.After(10 * time.Second):
				t.Error("checkpoint request not served within 10s")
			}
		})
		stop()
		checkParkCounters(t, a)
	})

	t.Run("wal_watermark", func(t *testing.T) {
		// SyncWrites: the ack of an upsert is parked until the group-commit
		// writer publishes the covering watermark, and only the writer's
		// notification can wake the owner for it — the producers are all
		// waiting for that very ack.
		h := newHarness(t, topology.SingleNode(1), 1, 1<<20)
		a, rep := h.aeus[0], &replies{}
		a.SetClientResult(rep.callback)
		mgr := openWAL(t, a)
		stop := runLoop(t, a)
		produce(t, func(p, round int) {
			key := uint64(p*parkRounds + round)
			h.router.Inject(0, &command.Command{
				Op: command.OpUpsert, Object: uint32(testObj),
				ReplyTo: ClientReply, Tag: uint64(p),
				KVs: []prefixtree.KV{{Key: key, Value: key}},
			})
			rep.wait(p, round+1)
		})
		stop()
		checkParkCounters(t, a)
		if st := mgr.Stats(); st.Fsyncs == 0 {
			t.Fatalf("durable stats %+v: no fsync happened", st)
		}
	})

	t.Run("stop", func(t *testing.T) {
		// Stop must wake a parked loop itself: were it left to the timeout,
		// the loop would find the stop flag set when the timer fires and
		// count a timeout-delivered wake-up — on every stop, not only on
		// the rare one where the timer fires between Stop's store of the
		// flag and its Wake.
		h := newHarness(t, topology.SingleNode(1), 1, 1000)
		a := h.aeus[0]
		for i := 0; i < 200; i++ {
			a.stop.Store(false)
			before := a.parks.Load()
			stop := runLoop(t, a)
			for a.parks.Load() == before {
				runtime.Gosched() // idle: one park per millisecond
			}
			stop()
		}
		if got := a.parkTimeouts.Load(); got*20 >= 200 {
			t.Fatalf("the timeout delivered %d of 200 stops", got)
		}
	})
}

// TestNonQuiescentAEUKeepsPolling: self-driven work (here a recovering
// range nobody will ever repair, since the only peer is not running) keeps
// the loop on the polling path — its sweeps are counted in iterations.
func TestNonQuiescentAEUKeepsPolling(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	a := h.aeus[0]
	a.awaited = append(a.awaited, awaitedRange{obj: testObj, lo: 600, hi: 700, from: 1})
	stop := runLoop(t, a)
	for a.iterations.Load() < 4*reconcileEvery {
		runtime.Gosched()
	}
	stop()
	if got := a.parks.Load(); got != 0 {
		t.Fatalf("AEU with a recovering range parked %d times", got)
	}
}
