package core

import (
	"testing"
	"time"

	"eris/internal/balance"
	"eris/internal/faults"
)

// TestChaosDelayedEpochDone arms faults.DelayEpochDone by name — the generic
// chaos sweeps arm kinds through faults.Kinds(), which covers the behaviour
// but leaves no test naming the kind (TestEveryKindArmedByName in
// internal/faults flags exactly that). A delayed epoch-done ack must not wedge a balance cycle: the parked
// ack is released one loop round later, so the cycle completes, no tuple is
// lost, and the delay is visible in the injector's accounting.
func TestChaosDelayedEpochDone(t *testing.T) {
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

	e.Faults().Arm(faults.DelayEpochDone, faults.Rule{Every: 2, Limit: 6})

	// Skew all accesses onto AEU 0 so sampling windows keep reporting an
	// imbalance until a cycle completes despite the delayed acks.
	p0 := e.AEUs()[0].Partition(chaosIdx)
	deadline := time.Now().Add(90 * time.Second)
	for {
		rep := e.Balancer().Report()
		if e.Faults().Injected(faults.DelayEpochDone) > 0 && rep.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery from delayed epoch-done acks: injected=%d report=%+v",
				e.Faults().Injected(faults.DelayEpochDone), rep)
		}
		for i := 0; i < 200; i++ {
			p0.RecordAccess()
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
	if n := e.MetricsSnapshot().Counters["faults.injected."+faults.DelayEpochDone.String()]; n == 0 {
		t.Fatal("faults.injected counter is empty")
	}
}
