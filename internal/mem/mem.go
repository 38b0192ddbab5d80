// Package mem implements the per-multiprocessor memory managers of ERIS
// (Section 3.1). A global memory manager is infeasible on a NUMA platform:
// it scatters a data object's memory across all nodes and becomes a
// contention point for write-heavy workloads. ERIS instead runs one manager
// per node, so every allocation an AEU makes is local to its multiprocessor
// and the load balancer can hand memory between AEUs of the same node with
// a pointer *link* instead of a copy. To scale with many cores per node,
// AEUs allocate through a thread-local Cache that batches refills from the
// node manager and recycles freed blocks without touching the shared lock.
//
// The managers deal in Blocks: extents of the machine's synthetic physical
// address space, each tagged with its home node. Consumers (the prefix-tree
// node slabs, column-store chunks, routing buffers) pair a Block with the
// real Go memory that backs it; the Block is what the cost model sees.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eris/internal/faults"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/topology"
)

// Block is an extent of simulated node-local memory.
type Block struct {
	Addr uint64
	Size int64
	Home topology.NodeID
}

// Valid reports whether the block was produced by an allocator (the zero
// Block is not valid; address 0 is never allocated).
func (b Block) Valid() bool { return b.Addr != 0 && b.Size > 0 }

// Manager is the memory manager of one NUMA node. It is safe for
// concurrent use; AEUs should allocate through a Cache instead of calling
// the manager directly on hot paths.
type Manager struct {
	machine *numasim.Machine
	node    topology.NodeID
	faults  *faults.Injector

	mu   sync.Mutex
	free map[int64][]Block // recycled blocks by exact size

	// Statistics (atomic; read by monitors without the lock).
	allocBytes  atomic.Int64 // bytes handed out and not yet freed
	peakBytes   atomic.Int64
	lockAllocs  atomic.Int64 // allocations that took the shared lock
	cacheHits   atomic.Int64 // allocations served by AEU-local caches
	allocFaults atomic.Int64 // transient allocation failures absorbed
}

// NewManager builds the manager for one node of the machine.
func NewManager(machine *numasim.Machine, node topology.NodeID) *Manager {
	return &Manager{
		machine: machine,
		node:    node,
		free:    make(map[int64][]Block),
	}
}

// Node returns the NUMA node this manager allocates on.
func (m *Manager) Node() topology.NodeID { return m.node }

// Alloc returns a block of exactly size bytes homed on the manager's node.
// Transient allocation failure — a first-class concern for in-memory
// engines (Durner et al.) and an injectable fault here — is absorbed by the
// manager: it is counted (mem.node.<n>.alloc_failures) and retried as if a
// reclaim pass freed the memory, so callers never observe it.
func (m *Manager) Alloc(size int64) Block {
	if size <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%d)", size))
	}
	for try := 0; try < 8 && m.faults.Should(faults.FailAlloc); try++ {
		m.allocFaults.Add(1)
	}
	m.lockAllocs.Add(1)
	m.mu.Lock()
	if list := m.free[size]; len(list) > 0 {
		b := list[len(list)-1]
		m.free[size] = list[:len(list)-1]
		m.mu.Unlock()
		m.account(size)
		return b
	}
	m.mu.Unlock()
	b := Block{Addr: m.machine.Alloc(size), Size: size, Home: m.node}
	m.account(size)
	return b
}

func (m *Manager) account(size int64) {
	now := m.allocBytes.Add(size)
	for {
		peak := m.peakBytes.Load()
		if now <= peak || m.peakBytes.CompareAndSwap(peak, now) {
			break
		}
	}
}

// Free returns a block to the manager's free list for reuse.
func (m *Manager) Free(b Block) {
	if !b.Valid() {
		return
	}
	if b.Home != m.node {
		panic(fmt.Sprintf("mem: freeing block homed on node %d to manager of node %d", b.Home, m.node))
	}
	m.allocBytes.Add(-b.Size)
	m.mu.Lock()
	m.free[b.Size] = append(m.free[b.Size], b)
	m.mu.Unlock()
}

// AllocatedBytes reports bytes currently handed out.
func (m *Manager) AllocatedBytes() int64 { return m.allocBytes.Load() }

// PeakBytes reports the high-water mark of allocated bytes.
func (m *Manager) PeakBytes() int64 { return m.peakBytes.Load() }

// Stats summarizes allocator activity.
type Stats struct {
	AllocatedBytes int64
	PeakBytes      int64
	LockAllocs     int64 // allocations that hit the shared manager
	CacheHits      int64 // allocations served entirely AEU-locally
	AllocFaults    int64 // transient allocation failures absorbed by retry
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		AllocatedBytes: m.allocBytes.Load(),
		PeakBytes:      m.peakBytes.Load(),
		LockAllocs:     m.lockAllocs.Load(),
		CacheHits:      m.cacheHits.Load(),
		AllocFaults:    m.allocFaults.Load(),
	}
}

// cacheSlots bounds how many blocks of one size a Cache keeps before
// spilling back to the manager, and how many it fetches per refill.
const cacheSlots = 8

// Cache is an AEU-local allocation cache over a node Manager. It is NOT
// safe for concurrent use: each AEU owns exactly one.
type Cache struct {
	mgr   *Manager
	local map[int64][]Block
}

// Manager returns the node manager backing this cache.
func (c *Cache) Manager() *Manager { return c.mgr }

// Alloc returns a block of exactly size bytes, preferring locally recycled
// blocks over the shared manager.
func (c *Cache) Alloc(size int64) Block {
	if list := c.local[size]; len(list) > 0 {
		b := list[len(list)-1]
		c.local[size] = list[:len(list)-1]
		c.mgr.cacheHits.Add(1)
		c.mgr.account(size)
		return b
	}
	return c.mgr.Alloc(size)
}

// Free recycles a block into the local cache, spilling to the manager when
// the local slot is full. Blocks homed on other nodes go straight to panic:
// an AEU must never free remote memory (cross-node transfers release memory
// on the source AEU's side).
func (c *Cache) Free(b Block) {
	if !b.Valid() {
		return
	}
	if b.Home != c.mgr.node {
		panic(fmt.Sprintf("mem: AEU cache on node %d freeing block homed on node %d", c.mgr.node, b.Home))
	}
	if len(c.local[b.Size]) < cacheSlots {
		c.mgr.allocBytes.Add(-b.Size)
		c.local[b.Size] = append(c.local[b.Size], b)
		return
	}
	c.mgr.Free(b)
}

// Flush spills all locally cached blocks back to the manager (used when an
// AEU shuts down).
func (c *Cache) Flush() {
	for size, list := range c.local {
		for _, b := range list {
			// Blocks in the local cache are already deducted from
			// allocBytes; re-account before handing them back.
			c.mgr.allocBytes.Add(b.Size)
			c.mgr.Free(b)
		}
		delete(c.local, size)
	}
}

// System bundles one Manager per node of a machine.
type System struct {
	machine  *numasim.Machine
	managers []*Manager
}

// NewSystem creates managers for every node of the machine.
func NewSystem(machine *numasim.Machine) *System {
	topo := machine.Topology()
	s := &System{machine: machine, managers: make([]*Manager, topo.NumNodes())}
	for i := range s.managers {
		s.managers[i] = NewManager(machine, topology.NodeID(i))
	}
	return s
}

// SetFaults arms every node manager with the engine's fault-injection
// registry; call before any allocation traffic. A nil injector disables
// the allocation hook.
func (s *System) SetFaults(inj *faults.Injector) {
	for _, m := range s.managers {
		m.faults = inj
	}
}

// Node returns the manager of one node.
func (s *System) Node(n topology.NodeID) *Manager { return s.managers[n] }

// Free returns a block to the manager of its home node.
func (s *System) Free(b Block) {
	if b.Valid() {
		s.managers[b.Home].Free(b)
	}
}

// TotalAllocated sums allocated bytes across all nodes.
func (s *System) TotalAllocated() int64 {
	var sum int64
	for _, m := range s.managers {
		sum += m.AllocatedBytes()
	}
	return sum
}

// RegisterMetrics publishes every node manager's counters on reg:
// allocation levels as gauges (mem.node.<n>.allocated_bytes, peak_bytes)
// and allocator activity as cumulative counters (mem.node.<n>.lock_allocs,
// cache_hits). The managers keep their own atomics; the registry reads them
// on snapshot, so the allocation hot path is untouched.
func (s *System) RegisterMetrics(reg *metrics.Registry) {
	for i, mgr := range s.managers {
		mgr := mgr
		prefix := fmt.Sprintf("mem.node.%d.", i)
		reg.GaugeFunc(prefix+"allocated_bytes", mgr.AllocatedBytes)
		reg.GaugeFunc(prefix+"peak_bytes", mgr.PeakBytes)
		reg.CounterFunc(prefix+"lock_allocs", mgr.lockAllocs.Load)
		reg.CounterFunc(prefix+"cache_hits", mgr.cacheHits.Load)
		reg.CounterFunc(prefix+"alloc_failures", mgr.allocFaults.Load)
	}
	reg.GaugeFunc("mem.allocated_bytes_total", s.TotalAllocated)
}
