package core

import (
	"fmt"
	"testing"
	"time"

	"eris/internal/balance"
	"eris/internal/colstore"
	"eris/internal/faults"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// chaosSeed fixes every injection decision stream; a failing run reproduces
// byte-for-byte from it. The CI chaos job uses the same seed.
const chaosSeed = 42

const (
	chaosIdx routing.ObjectID = 7
	chaosCol routing.ObjectID = 8
)

// TupleCount sums the tuples of one object over every AEU's partition; the
// crash tests (package core_test) use it too. Chaos tests pair it with the count loaded before injection: conservation
// must hold no matter which control-plane faults fired, because every
// fail-soft path either leaves tuples where they were or completes the
// transfer — none drops data.
func (e *Engine) TupleCount(id routing.ObjectID) (int64, error) {
	if e.objects[id] == nil {
		return 0, fmt.Errorf("core: unknown object %d", id)
	}
	var sum int64
	for _, a := range e.aeus {
		if p := a.Partition(id); p != nil {
			sum += p.SizeTuples()
		}
	}
	return sum, nil
}

// newChaosEngine builds a 4-AEU single-node engine with a tiny virtual
// sampling window, a short ack timeout (timed-out cycles must retry within
// the test deadline, not the production 30 s), and the deterministic fault
// registry enabled.
func newChaosEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{
		Topology: topology.SingleNode(4),
		Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
		Column:   colstore.Config{ChunkEntries: 64},
		Balance: balance.Config{
			SampleIntervalSec: 20e-6,
			Threshold:         0.2,
			AckTimeout:        250 * time.Millisecond,
		},
		Routing: routing.Config{Faults: faults.New(chaosSeed)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestChaosRangeBalancing injects every fault kind into an engine that is
// actively rebalancing a skewed range index and asserts the fail-soft
// contract: the engine survives, at least one cycle completes after the
// injections (eventual convergence), no tuple is lost, the routing table
// and partition bounds agree, and the failure is visible in a metrics
// counter.
func TestChaosRangeBalancing(t *testing.T) {
	for _, kind := range faults.Kinds() {
		kind := kind
		if kind == faults.DropConn || kind == faults.SlowWrite {
			// Wire-server faults; nothing in an engine-only run ever asks
			// the injector about them, so the recovery wait cannot end.
			// internal/server exercises both.
			continue
		}
		if kind == faults.TornWrite || kind == faults.FailFsync || kind == faults.FailWrite || kind == faults.Crash {
			// Durability faults; only consulted with a data directory.
			// The crash-recovery suite exercises them.
			continue
		}
		t.Run(kind.String(), func(t *testing.T) {
			e := newChaosEngine(t)
			const domain = 4000
			if err := e.CreateIndex(chaosIdx, domain); err != nil {
				t.Fatal(err)
			}
			if err := e.LoadIndexDense(chaosIdx, domain, nil); err != nil {
				t.Fatal(err)
			}
			if err := e.Watch(chaosIdx, balance.OneShot{}); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			defer e.Stop()

			rule := faults.Rule{Every: 2, Limit: 6}
			if kind == faults.FailAlloc {
				// Allocation attempts, not control events, are the eligible
				// stream here; fail a burst of them.
				rule = faults.Rule{Every: 1, Limit: 16}
			}
			e.Faults().Arm(kind, rule)

			// Skew all accesses onto AEU 0 so every sampling window sees an
			// imbalance and cycles keep coming until one completes cleanly.
			p0 := e.AEUs()[0].Partition(chaosIdx)
			mgr := e.Memory().Node(0)
			deadline := time.Now().Add(90 * time.Second)
			for {
				rep := e.Balancer().Report()
				if e.Faults().Injected(kind) > 0 && rep.Completed >= 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no recovery: injected=%d report=%+v",
						e.Faults().Injected(kind), rep)
				}
				for i := 0; i < 200; i++ {
					p0.RecordAccess()
				}
				if kind == faults.FailAlloc {
					// Keep the node allocator busy while the balancer works;
					// transfer-path allocations share the same hook.
					mgr.Free(mgr.Alloc(1 << 12))
				}
				time.Sleep(time.Millisecond)
			}
			e.Faults().DisarmAll()
			e.Stop()

			if got, err := e.TupleCount(chaosIdx); err != nil || got != domain {
				t.Fatalf("tuple conservation violated: %d of %d (%v)", got, domain, err)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			snap := e.MetricsSnapshot()
			if n := snap.Counters["faults.injected."+kind.String()]; n == 0 {
				t.Fatal("faults.injected counter is empty")
			}
			// The induced failure must be visible in the component's own
			// accounting, not just the injector's.
			switch kind {
			case faults.DropAck:
				if snap.Counters["balance.acks_dropped"] == 0 {
					t.Fatal("balance.acks_dropped is empty")
				}
			case faults.CorruptFrame:
				if snap.Counters["routing.drain.corrupt_frames"] == 0 {
					t.Fatal("routing.drain.corrupt_frames is empty")
				}
			case faults.FailAlloc:
				if snap.SumCounters("mem.node.", ".alloc_failures") == 0 {
					t.Fatal("mem alloc_failures is empty")
				}
			}
		})
	}
}

// TestChaosSizeBalancing injects the transfer-relevant fault kinds while a
// fully skewed size-partitioned column is being rebalanced. Size cycles
// move the data even when their acks are lost, so convergence is asserted
// on the tuple distribution, then on conservation and the holder invariants.
func TestChaosSizeBalancing(t *testing.T) {
	for _, kind := range []faults.Kind{faults.DropAck, faults.CorruptFrame, faults.StallTransfer} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			e := newChaosEngine(t)
			if err := e.CreateColumn(chaosCol); err != nil {
				t.Fatal(err)
			}
			// All tuples start on AEU 0.
			const tuples = 2000
			vals := make([]uint64, tuples)
			for i := range vals {
				vals[i] = uint64(i)
			}
			e.AEUs()[0].Partition(chaosCol).Col.Append(0, vals)
			if err := e.Watch(chaosCol, balance.OneShot{}); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			defer e.Stop()

			e.Faults().Arm(kind, faults.Rule{Every: 2, Limit: 6})

			maxHeld := func() int64 {
				var max int64
				for _, a := range e.AEUs() {
					if c := a.Partition(chaosCol).Col.Count(); c > max {
						max = c
					}
				}
				return max
			}
			deadline := time.Now().Add(90 * time.Second)
			for e.Faults().Injected(kind) == 0 || maxHeld() >= tuples/2 {
				if time.Now().After(deadline) {
					t.Fatalf("no convergence: injected=%d max=%d report=%+v",
						e.Faults().Injected(kind), maxHeld(), e.Balancer().Report())
				}
				time.Sleep(time.Millisecond)
			}
			e.Faults().DisarmAll()
			e.Stop()

			var total int64
			for _, a := range e.AEUs() {
				total += a.Partition(chaosCol).Col.Count()
			}
			if total != tuples {
				t.Fatalf("tuple conservation violated: %d of %d", total, tuples)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if e.MetricsSnapshot().Counters["faults.injected."+kind.String()] == 0 {
				t.Fatal("faults.injected counter is empty")
			}
		})
	}
}
