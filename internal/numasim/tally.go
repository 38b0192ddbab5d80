package numasim

import "eris/internal/topology"

// Tally accumulates one core's charges for a batch of accesses in plain
// fields and applies them on Commit: one clock add, and one route charge per
// run of accesses with the same home, instead of atomic read-modify-writes
// on the core's clock line and the node-shared byte counters at every
// access. Each access keeps its own truncation to whole picoseconds, so a
// committed tally moves the clock and the byte counters exactly as the same
// calls on Machine would. With the LLC model on, every access still runs
// through the cache when it is made (the model depends on access order) and
// the cache charges its line traffic itself; only the clock add waits for
// Commit.
//
// A Tally lives on its caller's stack and is not safe for concurrent use.
// Readers of the core's clock (MinClock, the balancer) see a batch's time
// land at once on Commit.
type Tally struct {
	m    *Machine
	core topology.CoreID
	src  topology.NodeID
	ps   int64
	// The pending route run: bytes of consecutive accesses homed on home.
	home  topology.NodeID
	bytes int64
	// Without the LLC model an access's cost depends only on its home, size
	// and overlap, and the kernels issue runs of equal ones (a lookup group
	// charges its 16 reads of one level back to back), so the last cost is
	// kept. It spares accessPS's float division on ~98 % of the accesses
	// of served lookups and ~80 % of bulk-load upserts, and a third of
	// BenchmarkLookupBatch's time (2-vCPU Xeon VM).
	last   costKey
	lastPS int64
}

type costKey struct {
	home    topology.NodeID
	bytes   int64
	overlap int
}

// Tally starts an empty accumulator for core.
//
//eris:hotpath
func (m *Machine) Tally(core topology.CoreID) Tally {
	return Tally{m: m, core: core, src: m.topo.NodeOfCore(core), last: costKey{overlap: -1}}
}

// Read adds one latency-sensitive read; see Machine.Read.
//
//eris:hotpath
func (t *Tally) Read(home topology.NodeID, addr uint64, bytes int64, overlap int) {
	t.access(home, addr, bytes, overlap, false)
}

// Write adds one latency-sensitive write; see Machine.Write.
//
//eris:hotpath
func (t *Tally) Write(home topology.NodeID, addr uint64, bytes int64, overlap int) {
	t.access(home, addr, bytes, overlap, true)
}

// AdvanceNS adds ns nanoseconds of pure compute time.
//
//eris:hotpath
func (t *Tally) AdvanceNS(ns float64) { t.ps += computePS(ns) }

//eris:hotpath
func (t *Tally) access(home topology.NodeID, addr uint64, bytes int64, overlap int, write bool) {
	if t.m.cache != nil {
		t.ps += t.m.accessPS(t.src, home, addr, bytes, overlap, write)
		return
	}
	if k := (costKey{home, bytes, overlap}); k != t.last {
		t.last, t.lastPS = k, t.m.accessPS(t.src, home, addr, bytes, overlap, write)
	}
	t.ps += t.lastPS
	if home != t.home && t.bytes > 0 {
		t.m.chargeRoute(t.src, t.home, t.bytes, true)
		t.bytes = 0
	}
	t.home = home
	t.bytes += bytes
}

// Commit applies the accumulated charges to the machine and empties the
// tally, which stays usable.
//
//eris:hotpath
func (t *Tally) Commit() {
	if t.ps != 0 {
		t.m.cores[t.core].clock.Add(t.ps)
		t.ps = 0
	}
	if t.bytes > 0 {
		t.m.chargeRoute(t.src, t.home, t.bytes, true)
		t.bytes = 0
	}
}
