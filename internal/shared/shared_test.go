package shared

import (
	"testing"

	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/topology"
	"eris/internal/workload"
)

func newMachine(t testing.TB, cacheScale float64) (*numasim.Machine, *mem.System) {
	t.Helper()
	m, err := numasim.New(topology.Intel(), numasim.Config{CacheScale: cacheScale})
	if err != nil {
		t.Fatal(err)
	}
	return m, mem.NewSystem(m)
}

// lookupOne looks up a single key: a one-key LookupBatch.
func lookupOne(tree *prefixtree.Tree, core topology.CoreID, key uint64) (uint64, bool) {
	var values [1]uint64
	var found [1]bool
	tree.LookupBatch(core, []uint64{key}, values[:], found[:])
	return values[0], found[0]
}

func TestSharedIndexLoadAndLookup(t *testing.T) {
	m, mems := newMachine(t, 0)
	ix, err := NewIndex(m, mems, prefixtree.Config{KeyBits: 24, PrefixBits: 8}, Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50000 // enough leaf slabs to interleave over all four nodes
	ix.LoadDense(8, n, func(k uint64) uint64 { return k + 1 })
	if got := ix.Tree().Count(); got != n {
		t.Fatalf("count = %d", got)
	}
	if err := ix.Tree().CheckCounts(); err != nil {
		t.Fatal(err)
	}
	v, ok := lookupOne(ix.Tree(), 0, 1234)
	if !ok || v != 1235 {
		t.Fatalf("lookup = (%d,%v)", v, ok)
	}
	// Interleaving must actually touch all four nodes.
	for nd := 0; nd < 4; nd++ {
		if mems.Node(topology.NodeID(nd)).AllocatedBytes() == 0 {
			t.Errorf("node %d got no memory", nd)
		}
	}
}

func TestSharedLookupsProduceRemoteTraffic(t *testing.T) {
	m, mems := newMachine(t, 0)
	ix, err := NewIndex(m, mems, prefixtree.Config{KeyBits: 24, PrefixBits: 8}, Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix.LoadDense(4, 1<<14, nil)
	e := m.StartEpoch()
	ops := ix.RunLookups(8, workload.Uniform{Domain: 1 << 14}, 16, 50e-6)
	if ops == 0 {
		t.Fatal("no lookups ran")
	}
	if e.TotalLinkBytes() == 0 {
		t.Error("interleaved shared index produced no interconnect traffic")
	}
	if e.Throughput() <= 0 {
		t.Error("no throughput")
	}
}

func TestSharedUpserts(t *testing.T) {
	m, mems := newMachine(t, 0)
	ix, err := NewIndex(m, mems, prefixtree.Config{KeyBits: 24, PrefixBits: 8}, Interleaved, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := ix.RunUpserts(8, workload.Uniform{Domain: 1 << 16}, 16, 50e-6)
	if ops == 0 {
		t.Fatal("no upserts ran")
	}
	if ix.Tree().Count() == 0 {
		t.Fatal("tree empty after upserts")
	}
	if err := ix.Tree().CheckCounts(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodePlacement(t *testing.T) {
	m, mems := newMachine(t, 0)
	ix, err := NewIndex(m, mems, prefixtree.Config{KeyBits: 24, PrefixBits: 8}, SingleNode, 2)
	if err != nil {
		t.Fatal(err)
	}
	ix.LoadDense(4, 4096, nil)
	for nd := 0; nd < 4; nd++ {
		alloc := mems.Node(topology.NodeID(nd)).AllocatedBytes()
		if nd == 2 && alloc == 0 {
			t.Error("target node got no memory")
		}
		if nd != 2 && alloc != 0 {
			t.Errorf("node %d got %d bytes despite SingleNode placement", nd, alloc)
		}
	}
}

func TestScanTableSingleVsInterleavedBound(t *testing.T) {
	m, mems := newMachine(t, 0)
	single, err := NewScanTable(m, mems, SingleNode, 0, 1<<16, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	e := m.StartEpoch()
	bytes := single.RunScans(40, 100e-6)
	if bytes == 0 {
		t.Fatal("no bytes scanned")
	}
	// All data on node 0: the run must be bound by node 0's controller.
	if b := e.BoundBy(); b != "memory controller of node 0" {
		t.Errorf("single-RAM scan bound by %q", b)
	}

	m2, mems2 := newMachine(t, 0)
	inter, err := NewScanTable(m2, mems2, Interleaved, 0, 1<<16, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	e2 := m2.StartEpoch()
	inter.RunScans(40, 100e-6)
	single1 := float64(e.TotalMCBytes()) / e.Duration()
	inter1 := float64(e2.TotalMCBytes()) / e2.Duration()
	if inter1 <= single1 {
		t.Errorf("interleaved bandwidth %.1f not above single-RAM %.1f", inter1/1e9, single1/1e9)
	}
}

func TestScanTableRejectsBadSizes(t *testing.T) {
	m, mems := newMachine(t, 0)
	if _, err := NewScanTable(m, mems, Interleaved, 0, 0, 16); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewScanTable(m, mems, Placement(9), 0, 16, 16); err == nil {
		t.Error("bad placement accepted")
	}
	if _, err := NewIndex(m, mems, prefixtree.Config{}, Placement(9), 0); err == nil {
		t.Error("bad index placement accepted")
	}
}
