package balance

import (
	"sync"
	"testing"
	"time"

	"eris/internal/aeu"
	"eris/internal/colstore"
	"eris/internal/csbtree"
	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

const testObj routing.ObjectID = 1

type rig struct {
	machine *numasim.Machine
	router  *routing.Router
	aeus    []*aeu.AEU
	bal     *Balancer
	wg      sync.WaitGroup
}

// newRig builds n AEUs on a single node with a range index over [0,domain)
// and a balancer with a tiny virtual sampling window.
func newRig(t *testing.T, n int, domain uint64, kind routing.TableKind) *rig {
	t.Helper()
	machine, err := numasim.New(topology.SingleNode(n), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mems := mem.NewSystem(machine)
	router, err := routing.New(machine, mems, n, routing.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{machine: machine, router: router}
	cfg := prefixtree.Config{KeyBits: 32, PrefixBits: 8}
	store, err := prefixtree.NewStore(machine, mems.Node(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]csbtree.Entry, n)
	span := domain / uint64(n)
	for i := 0; i < n; i++ {
		a := aeu.New(router, mems, uint32(i), aeu.Config{})
		if kind == routing.RangePartitioned {
			lo := uint64(i) * span
			hi := lo + span - 1
			if i == n-1 {
				hi = domain - 1
			}
			if _, err := a.AddIndexPartition(testObj, store, lo, hi); err != nil {
				t.Fatal(err)
			}
			entries[i] = csbtree.Entry{Low: lo, Owner: uint32(i)}
		} else {
			if _, err := a.AddColumnPartition(testObj, colstore.Config{ChunkEntries: 64}); err != nil {
				t.Fatal(err)
			}
		}
		r.aeus = append(r.aeus, a)
	}
	if kind == routing.RangePartitioned {
		entries[0].Low = 0
		if err := router.RegisterRange(testObj, entries); err != nil {
			t.Fatal(err)
		}
	} else {
		holders := make([]uint32, n)
		for i := range holders {
			holders[i] = uint32(i)
		}
		if err := router.RegisterSize(testObj, holders); err != nil {
			t.Fatal(err)
		}
	}
	aeu.RegisterPeers(r.aeus)
	r.bal = New(router, r.aeus, Config{SampleIntervalSec: 20e-6, Threshold: 0.2})
	for _, a := range r.aeus {
		a.SetEpochDone(r.bal.Ack)
	}
	return r
}

func (r *rig) start() {
	for _, a := range r.aeus {
		r.wg.Add(1)
		go func(a *aeu.AEU) {
			defer r.wg.Done()
			a.Run()
		}(a)
	}
	go r.bal.Run()
}

func (r *rig) stop() {
	r.bal.Stop()
	for _, a := range r.aeus {
		a.Stop()
	}
	r.wg.Wait()
	for round := 0; round < 8; round++ {
		busy := false
		for _, a := range r.aeus {
			if a.Settle() {
				busy = true
			}
		}
		if !busy {
			break
		}
	}
}

func TestBalancerTriggersOnSkew(t *testing.T) {
	r := newRig(t, 4, 4000, routing.RangePartitioned)
	r.bal.Watch(testObj, 4000, AccessFrequency, OneShot{})
	// Load keys and skew the access counters by hand: AEU 0 does all work.
	for i, a := range r.aeus {
		p := a.Partition(testObj)
		for k := p.Lo; k <= p.Hi; k++ {
			p.Tree.Upsert(a.Core, k, k, 16)
		}
		if i == 0 {
			p := a.Partition(testObj)
			pAccesses(p, 1000)
		}
	}
	r.start()
	// Keep the skew alive and the clocks moving until a cycle happens.
	deadline := time.Now().Add(20 * time.Second)
	for len(r.bal.Cycles()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("balancer never triggered")
		}
		pAccesses(r.aeus[0].Partition(testObj), 100)
		for c := 0; c < 4; c++ {
			r.machine.AdvanceNS(topology.CoreID(c), 10_000)
		}
		time.Sleep(time.Millisecond)
	}
	r.stop()
	cycles := r.bal.Cycles()
	if cycles[0].Algorithm != "One-Shot" || cycles[0].Imbalance <= 0.2 {
		t.Fatalf("cycle = %+v", cycles[0])
	}
	// AEU 0's range must have shrunk.
	entries := r.router.OwnerEntries(testObj)
	if entries[1].Low >= 1000 {
		t.Fatalf("entries after cycle = %+v", entries)
	}
	// All keys still present somewhere.
	var total int64
	for _, a := range r.aeus {
		total += a.Partition(testObj).Tree.Count()
	}
	if total != 4000 {
		t.Fatalf("keys after rebalance = %d", total)
	}
}

func TestBalancerIgnoresBalancedLoad(t *testing.T) {
	r := newRig(t, 4, 4000, routing.RangePartitioned)
	r.bal.Watch(testObj, 4000, AccessFrequency, OneShot{})
	r.start()
	for i := 0; i < 10; i++ {
		for _, a := range r.aeus {
			pAccesses(a.Partition(testObj), 50)
			r.machine.AdvanceNS(a.Core, 10_000)
		}
		time.Sleep(time.Millisecond)
	}
	r.stop()
	if n := len(r.bal.Cycles()); n != 0 {
		t.Fatalf("balanced load triggered %d cycles", n)
	}
}

func TestBalancerSizeMetric(t *testing.T) {
	r := newRig(t, 4, 4000, routing.SizePartitioned)
	r.bal.Watch(testObj, 0, PhysicalSize, OneShot{})
	// AEU 0 holds all the data.
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i)
	}
	r.aeus[0].Partition(testObj).Col.Append(0, vals)
	r.start()
	deadline := time.Now().Add(20 * time.Second)
	for len(r.bal.Cycles()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("size balancer never triggered")
		}
		for c := 0; c < 4; c++ {
			r.machine.AdvanceNS(topology.CoreID(c), 10_000)
		}
		time.Sleep(time.Millisecond)
	}
	r.stop()
	// Tuples redistributed toward the average (250 each).
	var counts []int64
	var total int64
	for _, a := range r.aeus {
		c := a.Partition(testObj).Col.Count()
		counts = append(counts, c)
		total += c
	}
	if total != 1000 {
		t.Fatalf("tuples lost: %v", counts)
	}
	if counts[0] == 1000 {
		t.Fatalf("no tuples moved: %v", counts)
	}
}

func TestSampleLoadsMetrics(t *testing.T) {
	r := newRig(t, 2, 2000, routing.RangePartitioned)
	p := r.aeus[0].Partition(testObj)
	pAccesses(p, 7)
	w := watched{obj: testObj, metric: AccessFrequency}
	loads := r.bal.SampleLoads(w)
	if loads[0] != 7 || loads[1] != 0 {
		t.Fatalf("freq loads = %v", loads)
	}
	// Sampling resets the window.
	if loads := r.bal.SampleLoads(w); loads[0] != 0 {
		t.Fatalf("second sample = %v", loads)
	}
	p.Tree.Upsert(0, 1, 1, 1)
	w.metric = PhysicalSize
	if loads := r.bal.SampleLoads(w); loads[0] != 1 {
		t.Fatalf("size loads = %v", loads)
	}
	w.metric = MeanCommandTime
	if loads := r.bal.SampleLoads(w); loads[0] != 0 {
		t.Fatalf("time loads = %v", loads)
	}
}

// pAccesses bumps a partition's access counter as the AEU's processing
// stage would.
func pAccesses(p *aeu.Partition, n int64) {
	for i := int64(0); i < n; i++ {
		p.RecordAccess()
	}
}
