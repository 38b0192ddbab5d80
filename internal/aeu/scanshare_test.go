package aeu

import (
	"sync"
	"testing"
	"time"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// Scan-sharing tests under the Run loop: client column scans from
// concurrent closed-loop callers must meet in shared passes, a lone caller
// must never be held, and Stop must answer a held group. Run with -race
// -cpu 2 (ci.yml does), so the callers and both AEU loops interleave.

const (
	shareCol    routing.ObjectID = 2
	sharePerAEU                  = 1000 << 10 // values per partition: a pass long enough for a peer's scan to queue behind it
	shareRounds                  = 60         // scans per caller
)

// sharePred matches the values 100..199 of the i%1000 column: a tenth of
// every partition, with no block pruned or accepted whole.
var sharePred = colstore.Predicate{Op: colstore.Between, Operand: 100, High: 199}

// scanFixture is two AEUs holding one column partition each, with client
// replies delivered per caller (the tag's high half) on a channel.
type scanFixture struct {
	h       *harness
	replies [2]chan uint64 // matched counts, per caller
}

func newScanFixture(t *testing.T) *scanFixture {
	t.Helper()
	f := &scanFixture{h: newHarness(t, topology.SingleNode(2), 2, 1000)}
	vals := make([]uint64, sharePerAEU)
	for i := range vals {
		vals[i] = uint64(i % 1000)
	}
	for i := range f.replies {
		f.replies[i] = make(chan uint64, 2) // one reply per AEU of the caller's one scan in flight
	}
	for _, a := range f.h.aeus {
		p, err := a.AddColumnPartition(shareCol, colstore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p.Col.Append(a.Core, vals)
		a.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
			if err != nil || len(kvs) == 0 {
				f.replies[tag>>32] <- ^uint64(0)
				return
			}
			f.replies[tag>>32] <- kvs[0].Key
		})
	}
	if err := f.h.router.RegisterSize(shareCol, []uint32{0, 1}); err != nil {
		t.Fatal(err)
	}
	return f
}

// scan sends caller's round-th client scan to both AEUs, as the engine's
// column scan fan-out does.
func (f *scanFixture) scan(caller, round int) {
	spec := colstore.SpecOf(sharePred)
	for _, a := range f.h.aeus {
		f.h.router.Inject(a.ID, &command.Command{
			Op: command.OpScan, Object: uint32(shareCol), Source: a.ID,
			ReplyTo: ClientReply, Tag: uint64(caller)<<32 | uint64(round),
			Pred: sharePred, Keys: []uint64{spec.Lo, spec.Hi},
		})
	}
}

// await collects caller's two replies and checks each holder's count.
func (f *scanFixture) await(t *testing.T, caller int) {
	for i := 0; i < 2; i++ {
		select {
		case m := <-f.replies[caller]:
			if m != sharePerAEU/10 {
				t.Errorf("caller %d: a holder matched %d, want %d", caller, m, sharePerAEU/10)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("caller %d: no reply within 10s", caller)
			return
		}
	}
}

// closedLoop runs callers closed-loop clients for rounds scans each.
func (f *scanFixture) closedLoop(t *testing.T, callers, rounds int) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f.scan(c, r)
				f.await(t, c)
			}
		}(c)
	}
	wg.Wait()
}

func TestConcurrentClientScansSharePasses(t *testing.T) {
	f := newScanFixture(t)
	for _, a := range f.h.aeus {
		defer runLoop(t, a)()
	}
	f.closedLoop(t, 2, shareRounds)
	for _, a := range f.h.aeus {
		passes, holds := a.colPasses.Load(), a.colHolds.Load()
		t.Logf("aeu %d: %d scans in %d passes, %d holds", a.ID, 2*shareRounds, passes, holds)
		if perPass := float64(2*shareRounds) / float64(passes); perPass < 1.5 {
			t.Errorf("aeu %d: %.2f scans per pass, want >= 1.5: concurrent callers do not share passes", a.ID, perPass)
		}
	}
}

func TestLoneClientScanNeverHeld(t *testing.T) {
	f := newScanFixture(t)
	for _, a := range f.h.aeus {
		defer runLoop(t, a)()
	}
	f.closedLoop(t, 1, shareRounds)
	for _, a := range f.h.aeus {
		if passes, holds := a.colPasses.Load(), a.colHolds.Load(); holds != 0 || passes != shareRounds {
			t.Errorf("aeu %d: %d holds and %d passes for %d scans of a lone caller, want 0 holds and one pass per scan",
				a.ID, holds, passes, shareRounds)
		}
	}
}

// TestStopAnswersHeldScans stops an AEU while it holds a scan group for a
// sharer that never comes: the stop must still run the pass and reply.
func TestStopAnswersHeldScans(t *testing.T) {
	f := newScanFixture(t)
	a := f.h.aeus[0]
	a.Partition(shareCol).scanExpect = 2 // as if the last pass had served two callers
	stop := runLoop(t, a)
	spec := colstore.SpecOf(sharePred)
	f.h.router.Inject(a.ID, &command.Command{
		Op: command.OpScan, Object: uint32(shareCol), Source: a.ID,
		ReplyTo: ClientReply, Tag: 0, Pred: sharePred, Keys: []uint64{spec.Lo, spec.Hi},
	})
	deadline := time.Now().Add(10 * time.Second)
	for a.colHolds.Load() == 0 && a.colPasses.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the scan was neither held nor run within 10s")
		}
	}
	stop()
	select {
	case m := <-f.replies[0]:
		if m != sharePerAEU/10 {
			t.Fatalf("held scan matched %d, want %d", m, sharePerAEU/10)
		}
	default:
		t.Fatalf("a scan group held at Stop was never answered (holds %d, passes %d)", a.colHolds.Load(), a.colPasses.Load())
	}
}

// TestHeldScanRunsOnBusyAEU holds a scan group for a sharer that never
// comes while a live generator keeps every step of the AEU busy, so it
// never idles or parks: the group's own age must still end the hold.
func TestHeldScanRunsOnBusyAEU(t *testing.T) {
	f := newScanFixture(t)
	a := f.h.aeus[0]
	a.Partition(shareCol).scanExpect = 2 // as if the last pass had served two callers
	a.Generator = GeneratorFunc(func(*AEU) bool { return true })
	defer runLoop(t, a)()
	spec := colstore.SpecOf(sharePred)
	f.h.router.Inject(a.ID, &command.Command{
		Op: command.OpScan, Object: uint32(shareCol), Source: a.ID,
		ReplyTo: ClientReply, Tag: 0, Pred: sharePred, Keys: []uint64{spec.Lo, spec.Hi},
	})
	select {
	case m := <-f.replies[0]:
		if m != sharePerAEU/10 {
			t.Fatalf("held scan matched %d, want %d", m, sharePerAEU/10)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("a scan held on a busy AEU was not answered within 10s (holds %d, passes %d)",
			a.colHolds.Load(), a.colPasses.Load())
	}
	if holds := a.colHolds.Load(); holds != 1 {
		t.Fatalf("%d holds, want the one group held", holds)
	}
}

// TestHeldScanRunsBeforeTransfer moves column tuples from AEU 0 to AEU 1
// while both hold the same client scan. Each holder must answer for the
// tuples it had when the scan was fanned out: the source before it detaches
// them, the receiver before it links them. The AEUs are stepped by hand
// with the hold Run grants, so the transfer lands while the groups wait.
func TestHeldScanRunsBeforeTransfer(t *testing.T) {
	f := newScanFixture(t)
	src, dst := f.h.aeus[0], f.h.aeus[1]
	for _, a := range f.h.aeus {
		a.Partition(shareCol).scanExpect = 2
	}
	f.scan(0, 0)
	for _, a := range f.h.aeus {
		a.step(false, true)
		if holds, passes := a.colHolds.Load(), a.colPasses.Load(); holds != 1 || passes != 0 {
			t.Fatalf("aeu %d: %d holds and %d passes, want the scan held", a.ID, holds, passes)
		}
	}
	const moved = 10 * 1000 // whole periods of i%1000: a tenth of them match
	dst.handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(shareCol), Source: dst.ID,
		ReplyTo: command.NoReply,
		Balance: &command.Balance{Epoch: 1, Fetches: []command.Fetch{{From: src.ID, Tuples: moved}}},
	})
	dst.Outbox().Flush()
	src.step(false, true) // serve the fetch: detach and ship the tail
	dst.step(false, true) // link it into the receiving partition
	if g0, g1 := src.Partition(shareCol).SizeTuples(), dst.Partition(shareCol).SizeTuples(); g0 != sharePerAEU-moved || g1 != sharePerAEU+moved {
		t.Fatalf("tuple split = (%d, %d), want (%d, %d)", g0, g1, sharePerAEU-moved, sharePerAEU+moved)
	}
	for i := 0; i <= idleSpins; i++ { // a group still held runs by its age
		src.step(false, true)
		dst.step(false, true)
	}
	f.await(t, 0)
}
