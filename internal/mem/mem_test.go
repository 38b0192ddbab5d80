package mem

import (
	"sync"
	"testing"

	"eris/internal/numasim"
	"eris/internal/topology"
)

// newCache creates an AEU-local cache over m.
func newCache(m *Manager) *Cache {
	return &Cache{mgr: m, local: make(map[int64][]Block)}
}

func newSystem(t *testing.T) *System {
	t.Helper()
	m, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(m)
}

func TestAllocHomesOnNode(t *testing.T) {
	s := newSystem(t)
	for n := 0; n < 4; n++ {
		b := s.Node(topology.NodeID(n)).Alloc(128)
		if !b.Valid() {
			t.Fatalf("node %d: invalid block %+v", n, b)
		}
		if b.Home != topology.NodeID(n) || b.Size != 128 {
			t.Fatalf("node %d: block %+v", n, b)
		}
	}
}

func TestFreeListReuse(t *testing.T) {
	s := newSystem(t)
	mgr := s.Node(0)
	b := mgr.Alloc(256)
	mgr.Free(b)
	b2 := mgr.Alloc(256)
	if b2.Addr != b.Addr {
		t.Errorf("freed block not reused: %#x vs %#x", b2.Addr, b.Addr)
	}
	if got := mgr.AllocatedBytes(); got != 256 {
		t.Errorf("allocated bytes = %d, want 256", got)
	}
}

func TestAccountingAndPeak(t *testing.T) {
	s := newSystem(t)
	mgr := s.Node(1)
	a := mgr.Alloc(100)
	b := mgr.Alloc(200)
	if got := mgr.AllocatedBytes(); got != 300 {
		t.Fatalf("allocated = %d", got)
	}
	mgr.Free(a)
	mgr.Free(b)
	if got := mgr.AllocatedBytes(); got != 0 {
		t.Fatalf("after free allocated = %d", got)
	}
	if got := mgr.PeakBytes(); got != 300 {
		t.Fatalf("peak = %d, want 300", got)
	}
}

func TestFreeWrongNodePanics(t *testing.T) {
	s := newSystem(t)
	b := s.Node(0).Alloc(64)
	defer func() {
		if recover() == nil {
			t.Error("freeing to wrong node manager did not panic")
		}
	}()
	s.Node(1).Free(b)
}

func TestCacheServesLocally(t *testing.T) {
	s := newSystem(t)
	mgr := s.Node(0)
	c := newCache(mgr)
	b := c.Alloc(512)
	c.Free(b)
	before := mgr.Stats().LockAllocs
	b2 := c.Alloc(512)
	if b2.Addr != b.Addr {
		t.Errorf("cache did not recycle the block")
	}
	st := mgr.Stats()
	if st.LockAllocs != before {
		t.Errorf("cache hit took the shared lock")
	}
	if st.CacheHits == 0 {
		t.Errorf("cache hit not counted")
	}
}

func TestCacheSpillsWhenFull(t *testing.T) {
	s := newSystem(t)
	mgr := s.Node(0)
	c := newCache(mgr)
	blocks := make([]Block, cacheSlots+4)
	for i := range blocks {
		blocks[i] = mgr.Alloc(64)
	}
	for _, b := range blocks {
		c.Free(b)
	}
	// All blocks freed: accounting must be back to zero whether a block sits
	// in the local cache or in the manager.
	if got := mgr.AllocatedBytes(); got != 0 {
		t.Errorf("allocated after frees = %d, want 0", got)
	}
}

func TestCacheFlush(t *testing.T) {
	s := newSystem(t)
	mgr := s.Node(0)
	c := newCache(mgr)
	c.Free(mgr.Alloc(64))
	c.Flush()
	if got := mgr.AllocatedBytes(); got != 0 {
		t.Errorf("allocated after flush = %d", got)
	}
	// The flushed block must be reusable through the manager.
	b := mgr.Alloc(64)
	if !b.Valid() {
		t.Error("alloc after flush failed")
	}
}

// TestForCore checks that the manager of each core's node is homed on that
// node, so an AEU allocating through s.Node(NodeOfCore(core)) stays local.
func TestForCore(t *testing.T) {
	s := newSystem(t)
	topo := topology.Intel()
	for c := topology.CoreID(0); int(c) < topo.NumCores(); c += 10 {
		node := topo.NodeOfCore(c)
		if got := s.Node(node).Node(); got != node {
			t.Errorf("core %d: manager node %d, want %d", c, got, node)
		}
	}
}

// TestInterleavedAlloc allocates round-robin across the node managers, as a
// NUMA-agnostic interleaved placement would, and checks every block is
// homed on the node whose manager allocated it.
func TestInterleavedAlloc(t *testing.T) {
	s := newSystem(t)
	for i := 0; i < 8; i++ {
		node := topology.NodeID(i % 4)
		if b := s.Node(node).Alloc(64); b.Home != node {
			t.Errorf("block %d homed on %d, want %d", i, b.Home, node)
		}
	}
}

func TestTotalAllocated(t *testing.T) {
	s := newSystem(t)
	s.Node(0).Alloc(100)
	s.Node(3).Alloc(50)
	if got := s.TotalAllocated(); got != 150 {
		t.Errorf("total = %d", got)
	}
}

func TestManagerConcurrency(t *testing.T) {
	s := newSystem(t)
	mgr := s.Node(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := mgr.Alloc(128)
				mgr.Free(b)
			}
		}()
	}
	wg.Wait()
	if got := mgr.AllocatedBytes(); got != 0 {
		t.Errorf("allocated = %d after balanced alloc/free", got)
	}
}

func TestAllocZeroPanics(t *testing.T) {
	s := newSystem(t)
	defer func() {
		if recover() == nil {
			t.Error("Alloc(0) did not panic")
		}
	}()
	s.Node(0).Alloc(0)
}
