package numasim

import (
	"math"
	"sync"
	"testing"

	"eris/internal/topology"
)

func newMachine(t *testing.T, topo *topology.Topology, cfg Config) *Machine {
	t.Helper()
	m, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestReadCostWithoutCache(t *testing.T) {
	topo := topology.Intel() // local 26.7 GB/s / 129 ns; remote 10.7 / 193
	m := newMachine(t, topo, Config{})
	// Local read of 64 bytes, no overlap: 129 ns + 64 B / 26.7 GB/s.
	m.Read(0, 0, m.Alloc(64), 64, 1)
	wantNS := 129 + 64*1000.0/26.7/1000
	if got := m.ClockNS(0); math.Abs(got-wantNS) > 0.01 {
		t.Errorf("local read cost = %.3f ns, want %.3f", got, wantNS)
	}
	// Remote read from core 0 (node 0) to node 2.
	m.Read(1, 2, m.Alloc(64), 64, 1)
	wantNS = 193 + 64*1000.0/10.7/1000
	if got := m.ClockNS(1); math.Abs(got-wantNS) > 0.01 {
		t.Errorf("remote read cost = %.3f ns, want %.3f", got, wantNS)
	}
}

func TestOverlapDividesLatency(t *testing.T) {
	m := newMachine(t, topology.Intel(), Config{})
	a := m.Alloc(64)
	m.Read(0, 2, a, 64, 1)
	single := m.Clock(0)
	m.Read(1, 2, a, 64, 10)
	batched := m.Clock(1)
	if batched*9 > single {
		t.Errorf("batched cost %d should be ~1/10 of single %d", batched, single)
	}
	// Overlap is clamped to the memory-level parallelism of 10.
	m.Read(2, 2, a, 64, 1000)
	if got := m.Clock(2); got != batched {
		t.Errorf("overlap beyond 10: cost %d, want clamp to %d", got, batched)
	}
}

// TestBatchOverlapClampsAtTen pins the memory-level parallelism of the cost
// model: a batch of 12 independent random accesses overlaps only 10 of them.
func TestBatchOverlapClampsAtTen(t *testing.T) {
	topo := topology.Intel()
	m := newMachine(t, topo, Config{})
	cost := topo.Cost(0, 2)
	ps := cost.LatencyNS*psPerNS + 64*psPerByte(cost.BandwidthGBs)
	m.Read(0, 2, m.Alloc(64), 64, 12)
	if got, want := m.Clock(0), int64(ps/10); got != want {
		t.Errorf("12-access batch costs %d ps, want %d (overlap clamped at 10)", got, want)
	}
}

// TestForwardedMissCostsNinetyPercent pins cache-to-cache forwarding: a miss
// served by a remote node's cache costs 0.9 x the pair latency and no
// bandwidth term.
func TestForwardedMissCostsNinetyPercent(t *testing.T) {
	topo := topology.Intel()
	m := newMachine(t, topo, Config{CacheScale: 1})
	a := m.Alloc(64)
	m.Read(0, 1, a, 64, 1)  // node 0 caches a line homed on node 1
	m.Read(20, 1, a, 64, 1) // core 20 = node 2; forwarded from node 0's cache
	if got, want := m.Clock(20), int64(topo.Cost(2, 0).LatencyNS*0.9*psPerNS); got != want {
		t.Errorf("forwarded miss costs %d ps, want %d (0.9 x pair latency)", got, want)
	}
}

func TestStreamAccounting(t *testing.T) {
	topo := topology.Intel()
	m := newMachine(t, topo, Config{})
	e := m.StartEpoch()
	const bytes = 1 << 20
	m.Stream(0, 3, bytes) // core 0 on node 0 streams from node 3
	if got := e.MCBytes(3); got != bytes {
		t.Errorf("MC bytes at home = %d, want %d", got, bytes)
	}
	if got := e.TotalLinkBytes(); got != bytes {
		t.Errorf("link bytes = %d, want %d (single hop)", got, bytes)
	}
	// Local stream produces no link traffic.
	m.Stream(0, 0, bytes)
	if got := e.TotalLinkBytes(); got != bytes {
		t.Errorf("after local stream link bytes = %d, want unchanged %d", got, bytes)
	}
	if got := m.routeHit[0].Load(); got != bytes {
		t.Errorf("local bytes = %d, want %d", got, bytes)
	}
}

func TestDurationRoofline(t *testing.T) {
	topo := topology.Intel()
	m := newMachine(t, topo, Config{})
	e := m.StartEpoch()
	// All 10 cores of node 0 stream 100 MB each from local memory. Each
	// core's clock advances only 100MB/26.7GB/s, but the memory controller
	// must serve 1 GB, so the roofline must dominate.
	const per = 100 << 20
	first, last := topo.CoresOfNode(0)
	for c := first; c < last; c++ {
		m.Stream(c, 0, per)
	}
	total := float64(per) * float64(last-first)
	wantDur := total / (26.7 * 1e9)
	if got := e.Duration(); math.Abs(got-wantDur)/wantDur > 0.01 {
		t.Errorf("duration = %v, want MC roofline %v", got, wantDur)
	}
	if b := e.BoundBy(); b != "memory controller of node 0" {
		t.Errorf("BoundBy = %q", b)
	}
}

func TestLinkRoofline(t *testing.T) {
	topo := topology.Intel()
	m := newMachine(t, topo, Config{})
	e := m.StartEpoch()
	// One core hammers a remote node: pair bandwidth 10.7 GB/s is below the
	// 12.8 GB/s link capacity, so the core clock should dominate.
	m.Stream(0, 1, 1<<30)
	coreBound := float64(1<<30) * (1000.0 / 10.7) / 1e12
	if got := e.Duration(); math.Abs(got-coreBound)/coreBound > 0.01 {
		t.Errorf("duration = %v, want core bound %v", got, coreBound)
	}
	// Many cores from different nodes hammer node 1 through their (distinct)
	// links: now node 1's MC saturates.
	for c := topology.CoreID(10); c < 40; c++ {
		m.Stream(c, 1, 1<<30)
	}
	if b := e.BoundBy(); b != "memory controller of node 1" {
		t.Errorf("BoundBy = %q, want MC of node 1", b)
	}
}

func TestEpochDeltas(t *testing.T) {
	m := newMachine(t, topology.SingleNode(2), Config{})
	m.Stream(0, 0, 1000)
	m.CountOps(0, 5)
	e := m.StartEpoch()
	if e.Ops() != 0 || e.TotalMCBytes() != 0 {
		t.Fatalf("fresh epoch sees prior traffic: ops=%d mc=%d", e.Ops(), e.TotalMCBytes())
	}
	m.Stream(1, 0, 500)
	m.CountOps(1, 3)
	if e.Ops() != 3 || e.TotalMCBytes() != 500 {
		t.Fatalf("epoch deltas wrong: ops=%d mc=%d", e.Ops(), e.TotalMCBytes())
	}
	if e.Throughput() <= 0 {
		t.Fatal("throughput should be positive")
	}
}

func TestAllocAlignedAndUnique(t *testing.T) {
	m := newMachine(t, topology.SingleNode(1), Config{})
	seen := map[uint64]bool{}
	prevEnd := uint64(0)
	for i := 0; i < 100; i++ {
		a := m.Alloc(100)
		if a%64 != 0 {
			t.Fatalf("alloc %#x not line aligned", a)
		}
		if seen[a] || a < prevEnd {
			t.Fatalf("alloc %#x overlaps previous ranges", a)
		}
		seen[a] = true
		prevEnd = a + 128
	}
	if a := m.Alloc(0); a == 0 {
		t.Fatal("zero-size alloc returned address 0")
	}
}

func TestCachedAccessCheaperOnHit(t *testing.T) {
	m := newMachine(t, topology.Intel(), Config{CacheScale: 1})
	a := m.Alloc(64)
	m.Read(0, 2, a, 64, 1)
	miss := m.Clock(0)
	m.Read(0, 2, a, 64, 1)
	hit := m.Clock(0) - miss
	if hit >= miss {
		t.Errorf("hit cost %d should be far below miss cost %d", hit, miss)
	}
	wantHitNS := m.Topology().CacheHitNS
	if got := float64(hit) / 1000; math.Abs(got-wantHitNS) > 0.01 {
		t.Errorf("hit cost = %.2f ns, want %.2f", got, wantHitNS)
	}
}

func TestCachedMultiLineAccessSplits(t *testing.T) {
	m := newMachine(t, topology.Intel(), Config{CacheScale: 1})
	e := m.StartEpoch()
	a := m.Alloc(256)
	m.Read(0, 1, a, 256, 1) // four lines
	if got := e.MCBytes(1); got != 256 {
		t.Errorf("MC bytes = %d, want 256 (4 whole lines)", got)
	}
}

func TestForwardedMissChargesHolderRoute(t *testing.T) {
	m := newMachine(t, topology.Intel(), Config{CacheScale: 1})
	a := m.Alloc(64)
	m.Read(0, 1, a, 64, 1) // node 0 caches a line homed on node 1
	e := m.StartEpoch()
	m.Read(10, 1, a, 64, 1) // core 10 = node 1; forwarded from node 0's cache
	if got := e.TotalLinkBytes(); got != 64 {
		t.Errorf("forward link bytes = %d, want 64", got)
	}
	if got := e.TotalMCBytes(); got != 0 {
		t.Errorf("forwarded miss touched memory: %d bytes", got)
	}
}

func TestSyncAndMinClock(t *testing.T) {
	m := newMachine(t, topology.SingleNode(4), Config{})
	m.AdvanceNS(0, 100)
	m.AdvanceNS(1, 50)
	if got := m.MinClock(0, 4); got != 0 {
		t.Errorf("MinClock = %d, want 0 (cores 2,3 idle)", got)
	}
	m.AdvanceNS(2, 500)
	m.AdvanceNS(3, 400)
	if got := m.MinClock(0, 4); got != 50_000 {
		t.Errorf("MinClock = %d, want 50000", got)
	}
	if got := m.MinClock(2, 4); got != 400_000 {
		t.Errorf("MinClock(2, 4) = %d, want 400000", got)
	}
}

func TestStreamBetween(t *testing.T) {
	topo := topology.Intel()
	m := newMachine(t, topo, Config{})
	e := m.StartEpoch()
	m.StreamBetween(0, 1, 0, 1<<20) // core on node 0 copies node1 -> node0
	if got := e.MCBytes(1); got != 1<<20 {
		t.Errorf("source MC bytes = %d", got)
	}
	if got := e.MCBytes(0); got != 1<<20 {
		t.Errorf("destination MC bytes = %d", got)
	}
	if got := e.TotalLinkBytes(); got != 1<<20 {
		t.Errorf("link bytes = %d, want one remote leg only", got)
	}
}

func TestConcurrentAccounting(t *testing.T) {
	m := newMachine(t, topology.AMD(), Config{})
	e := m.StartEpoch()
	var wg sync.WaitGroup
	const per = 1000
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(core topology.CoreID) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Stream(core, topology.NodeID(i%8), 64)
				m.CountOps(core, 1)
			}
		}(topology.CoreID(c))
	}
	wg.Wait()
	if got := e.Ops(); got != 16*per {
		t.Errorf("ops = %d, want %d", got, 16*per)
	}
	// Conservation: every streamed byte hits exactly one memory controller.
	if got := e.TotalMCBytes(); got != 16*per*64 {
		t.Errorf("MC bytes = %d, want %d", got, 16*per*64)
	}
}

func TestBusiestLinks(t *testing.T) {
	topo := topology.Intel()
	m := newMachine(t, topo, Config{})
	e := m.StartEpoch()
	m.Stream(0, 1, 1000)
	m.Stream(0, 2, 500)
	// Each stream crosses the one direct link to its home node; the epoch
	// charges its bytes to that link alone.
	for _, c := range []struct {
		home  topology.NodeID
		bytes int64
	}{{1, 1000}, {2, 500}} {
		route := topo.Route(0, c.home)
		if len(route) != 1 {
			t.Fatalf("route 0->%d = %v, want one direct link", c.home, route)
		}
		if got := e.LinkBytes(route[0]); got != c.bytes {
			t.Errorf("link 0->%d carried %d bytes, want %d", c.home, got, c.bytes)
		}
	}
	if got := e.TotalLinkBytes(); got != 1500 {
		t.Errorf("total link bytes = %d, want 1500", got)
	}
}

func TestNewValidates(t *testing.T) {
	// The cache directory tracks holders in a 64-bit mask.
	wide := topology.FullyConnected(65, 1, 20, 100, 8, 200, 10)
	if _, err := New(wide, Config{CacheScale: 1}); err == nil {
		t.Error("65-node topology accepted when cache enabled")
	}
	if _, err := New(wide, Config{}); err != nil {
		t.Errorf("65-node topology without cache model: %v", err)
	}
}
