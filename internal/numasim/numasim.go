// Package numasim provides the software NUMA machine that the ERIS engine
// runs on. It substitutes for the real multiprocessor hardware of the paper
// (which is unreachable from Go: no core pinning, no NUMA allocation
// control, no PMU access) while preserving the behaviour the paper's
// evaluation depends on: where bytes move (local vs. remote memory, cache
// vs. DRAM) and what that costs.
//
// Every memory access performed by a worker is charged to its core's
// *virtual clock*: an LLC hit costs the modeled cache latency, a miss costs
// the distance-dependent DRAM latency plus the transfer time at the
// calibrated pair bandwidth (topology.PairCost, taken from the paper's
// Table 2). Streaming accesses bypass the cache and pay pure bandwidth
// cost. Bytes are additionally accounted against every interconnect link on
// the route and against the home node's memory controller; an Epoch's
// Duration is the maximum of the slowest core's clock advance and the
// roofline bounds (bytes / capacity) of every link and memory controller.
// This reproduces who is bound by what: a single-node scan is bound by one
// memory controller, an interleaved scan by the interconnect links, and a
// NUMA-aware scan only by the aggregate local bandwidth.
package numasim

import (
	"fmt"
	"math"
	"sync/atomic"

	"eris/internal/cache"
	"eris/internal/metrics"
	"eris/internal/topology"
)

// Config tunes the simulation.
type Config struct {
	// CacheScale divides the modeled LLC capacities; use the same factor
	// the data set was scaled down by. Zero disables the cache simulator
	// entirely (every random access pays the DRAM cost).
	CacheScale float64
}

// Fixed parameters of the cost model.
const (
	// mlp is the number of outstanding memory requests a core can overlap
	// (memory-level parallelism); batched random accesses divide their
	// latency by min(batch, mlp).
	mlp = 10
	// forwardFactor scales the pair latency for misses serviced by a
	// remote cache instead of memory (cache-to-cache forwarding is slightly
	// faster than DRAM).
	forwardFactor = 0.9
)

// psPerByteFactor converts GB/s into picoseconds per byte:
// 1 GB/s = 1e9 bytes / 1e12 ps, so ps/byte = 1000 / GBs.
//
//eris:hotpath
func psPerByte(gbs float64) float64 { return 1000.0 / gbs }

const psPerNS = 1000

type coreState struct {
	clock atomic.Int64 // picoseconds
	ops   atomic.Int64 // completed operations (for throughput accounting)
	_     [48]byte     // pad to a cache line to avoid false sharing
}

// Machine is a simulated NUMA multiprocessor system.
type Machine struct {
	topo  *topology.Topology
	cfg   Config
	cache *cache.System // nil when cache modeling is disabled

	cores     []coreState
	linkBytes []atomic.Int64 // per link, both directions combined
	mcBytes   []atomic.Int64 // per node memory controller
	routeHit  []atomic.Int64 // bytes that stayed local (for reporting)

	nextAddr atomic.Uint64
}

// New builds a machine over the given topology.
func New(topo *topology.Topology, cfg Config) (*Machine, error) {
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("numasim: %w", err)
	}
	m := &Machine{
		topo:      topo,
		cfg:       cfg,
		cores:     make([]coreState, topo.NumCores()),
		linkBytes: make([]atomic.Int64, len(topo.Links)),
		mcBytes:   make([]atomic.Int64, topo.NumNodes()),
		routeHit:  make([]atomic.Int64, topo.NumNodes()),
	}
	m.nextAddr.Store(cache.LineBytes) // keep address 0 invalid
	if cfg.CacheScale > 0 {
		cs, err := cache.New(topo, cfg.CacheScale)
		if err != nil {
			return nil, fmt.Errorf("numasim: %w", err)
		}
		m.cache = cs
	}
	return m, nil
}

// Topology returns the machine's topology.
//
//eris:hotpath
func (m *Machine) Topology() *topology.Topology { return m.topo }

// RegisterMetrics publishes the machine's byte counters on reg: cumulative
// interconnect traffic per link (machine.link.<i>.bytes), memory-controller
// traffic per node (machine.mc.<n>.bytes), link-local traffic that never
// crossed the interconnect (machine.local.<n>.bytes), and their totals.
// These are the counters behind the paper's Figure 12 bandwidth bars; an
// interval delta divided by the epoch duration gives GB/s.
func (m *Machine) RegisterMetrics(reg *metrics.Registry) {
	for i := range m.linkBytes {
		i := i
		reg.CounterFunc(fmt.Sprintf("machine.link.%d.bytes", i), m.linkBytes[i].Load)
	}
	for n := range m.mcBytes {
		n := n
		reg.CounterFunc(fmt.Sprintf("machine.mc.%d.bytes", n), m.mcBytes[n].Load)
		reg.CounterFunc(fmt.Sprintf("machine.local.%d.bytes", n), m.routeHit[n].Load)
	}
	reg.CounterFunc("machine.link_bytes_total", func() int64 {
		var sum int64
		for i := range m.linkBytes {
			sum += m.linkBytes[i].Load()
		}
		return sum
	})
	reg.CounterFunc("machine.mc_bytes_total", func() int64 {
		var sum int64
		for i := range m.mcBytes {
			sum += m.mcBytes[i].Load()
		}
		return sum
	})
	reg.GaugeFunc("machine.max_clock_ps", m.MaxClock)
}

// Cache returns the LLC simulator, or nil when disabled.
func (m *Machine) Cache() *cache.System { return m.cache }

// Config returns the effective configuration.
func (m *Machine) Config() Config { return m.cfg }

// Alloc reserves size bytes of the synthetic physical address space and
// returns the line-aligned base address. The home node of the range is
// whatever the caller's allocator decides; the machine only needs addresses
// to be unique so that the cache simulator never aliases two allocations.
func (m *Machine) Alloc(size int64) uint64 {
	if size <= 0 {
		size = 1
	}
	aligned := (uint64(size) + cache.LineBytes - 1) &^ (cache.LineBytes - 1)
	return m.nextAddr.Add(aligned) - aligned
}

// AdvanceNS charges ns nanoseconds of pure compute time to core.
//
//eris:hotpath
func (m *Machine) AdvanceNS(core topology.CoreID, ns float64) {
	if ps := computePS(ns); ps > 0 {
		m.cores[core].clock.Add(ps)
	}
}

// computePS converts ns of compute time into the picoseconds a clock
// advances by; negative time charges nothing.
//
//eris:hotpath
func computePS(ns float64) int64 {
	if ns > 0 {
		return int64(ns * psPerNS)
	}
	return 0
}

// CountOps adds n completed operations to core's throughput counter.
//
//eris:hotpath
func (m *Machine) CountOps(core topology.CoreID, n int64) {
	m.cores[core].ops.Add(n)
}

// Clock returns core's virtual time in picoseconds.
//
//eris:hotpath
func (m *Machine) Clock(core topology.CoreID) int64 { return m.cores[core].clock.Load() }

// ClockNS returns core's virtual time in nanoseconds.
//
//eris:hotpath
func (m *Machine) ClockNS(core topology.CoreID) float64 {
	return float64(m.Clock(core)) / psPerNS
}

// MinClock returns the minimum virtual time over all cores in [first,last).
// The engine uses it as a soft barrier to bound virtual-time skew between
// workers.
//
//eris:hotpath
func (m *Machine) MinClock(first, last topology.CoreID) int64 {
	min := int64(math.MaxInt64)
	for c := first; c < last; c++ {
		if v := m.cores[c].clock.Load(); v < min {
			min = v
		}
	}
	return min
}

// MaxClock returns the maximum virtual time over all cores.
func (m *Machine) MaxClock() int64 {
	var max int64
	for i := range m.cores {
		if v := m.cores[i].clock.Load(); v > max {
			max = v
		}
	}
	return max
}

// chargeRoute accounts bytes on every link between src and home and on the
// home node's memory controller (when mc is true).
//
//eris:hotpath
func (m *Machine) chargeRoute(src, home topology.NodeID, bytes int64, mc bool) {
	if src == home {
		m.routeHit[src].Add(bytes)
	} else {
		for _, l := range m.topo.Route(src, home) {
			m.linkBytes[l].Add(bytes)
		}
	}
	if mc {
		m.mcBytes[home].Add(bytes)
	}
}

// Read charges core with one latency-sensitive read of `bytes` bytes at
// synthetic address addr whose data lives on home. overlap is the number of
// independent accesses the caller has batched together (1 for a dependent
// pointer chase); latency is divided by min(overlap, mlp).
//
//eris:hotpath
func (m *Machine) Read(core topology.CoreID, home topology.NodeID, addr uint64, bytes int64, overlap int) {
	t := m.Tally(core)
	t.Read(home, addr, bytes, overlap)
	t.Commit()
}

// Write charges core with one latency-sensitive write (read-for-ownership
// plus store) of `bytes` at addr homed on home.
//
//eris:hotpath
func (m *Machine) Write(core topology.CoreID, home topology.NodeID, addr uint64, bytes int64, overlap int) {
	t := m.Tally(core)
	t.Write(home, addr, bytes, overlap)
	t.Commit()
}

// accessPS returns the virtual cost in picoseconds of one random access
// from src, with latency divided by min(overlap, mlp). With the LLC model
// on it runs the access through the cache, which charges the traffic of
// every line itself; with the model off every access misses, and the
// caller charges bytes on the route to home.
//
//eris:hotpath
func (m *Machine) accessPS(src, home topology.NodeID, addr uint64, bytes int64, overlap int, write bool) int64 {
	if overlap < 1 {
		overlap = 1
	}
	if overlap > mlp {
		overlap = mlp
	}
	var ps float64
	if m.cache != nil {
		ps = m.cachedAccessPS(src, home, addr, bytes, write)
	} else {
		cost := m.topo.Cost(src, home)
		ps = cost.LatencyNS*psPerNS + float64(bytes)*psPerByte(cost.BandwidthGBs)
	}
	// Only the latency component overlaps; we approximate by dividing the
	// whole per-access cost, which is dominated by latency for the small
	// transfers random accesses make.
	return int64(ps / float64(overlap))
}

// cachedAccessPS runs the access through the LLC simulator line by line and
// returns the virtual cost in picoseconds.
//
//eris:hotpath
func (m *Machine) cachedAccessPS(src, home topology.NodeID, addr uint64, bytes int64, write bool) float64 {
	var ps float64
	const lb = cache.LineBytes
	end := addr + uint64(bytes)
	for lineAddr := addr &^ uint64(lb-1); lineAddr < end; lineAddr += uint64(lb) {
		r := m.cache.Access(src, home, lineAddr, write)
		switch {
		case r.Hit:
			ps += m.topo.CacheHitNS * psPerNS
		case r.FromCache:
			// Forwarded from another node's cache.
			var lat float64
			if r.Source == src {
				lat = m.topo.CacheHitNS
			} else {
				lat = m.topo.Cost(src, r.Source).LatencyNS * forwardFactor
				m.chargeRoute(src, r.Source, lb, false)
			}
			ps += lat * psPerNS
		default:
			cost := m.topo.Cost(src, home)
			ps += cost.LatencyNS*psPerNS + float64(lb)*psPerByte(cost.BandwidthGBs)
			m.chargeRoute(src, home, lb, true)
		}
		if r.WritebackBytes > 0 {
			// Dirty evictions drain asynchronously; charge the traffic but
			// no latency.
			m.chargeRoute(src, r.WritebackHome, r.WritebackBytes, true)
		}
	}
	return ps
}

// Stream charges core with a sequential, cache-bypassing transfer of
// `bytes` from home (a scan or a bulk partition copy). The cost is pure
// bandwidth at the calibrated pair rate; link and memory-controller bytes
// are accounted for the roofline.
//
//eris:hotpath
func (m *Machine) Stream(core topology.CoreID, home topology.NodeID, bytes int64) {
	src := m.topo.NodeOfCore(core)
	cost := m.topo.Cost(src, home)
	m.cores[core].clock.Add(int64(float64(bytes) * psPerByte(cost.BandwidthGBs)))
	m.chargeRoute(src, home, bytes, true)
}

// StreamBetween charges a bulk copy read from srcHome and written to
// dstHome, driven by core (a cross-node partition transfer). Bytes traverse
// the route twice conceptually (read + write) but we account each leg once.
//
//eris:hotpath
func (m *Machine) StreamBetween(core topology.CoreID, srcHome, dstHome topology.NodeID, bytes int64) {
	src := m.topo.NodeOfCore(core)
	read := m.topo.Cost(src, srcHome)
	write := m.topo.Cost(src, dstHome)
	// Reads and writes of a copy loop overlap; the slower leg dominates.
	slower := math.Max(psPerByte(read.BandwidthGBs), psPerByte(write.BandwidthGBs))
	m.cores[core].clock.Add(int64(float64(bytes) * slower))
	m.chargeRoute(src, srcHome, bytes, true)
	m.chargeRoute(src, dstHome, bytes, true)
}

// RemoteLatencyNS exposes the calibrated pair latency for callers that need
// to model protocol round trips (e.g. the routing layer's flush handshake).
//
//eris:hotpath
func (m *Machine) RemoteLatencyNS(core topology.CoreID, home topology.NodeID) float64 {
	return m.topo.Cost(m.topo.NodeOfCore(core), home).LatencyNS
}
