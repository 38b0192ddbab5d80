// Package cache simulates the per-node last-level caches of a NUMA machine,
// including MESIF coherence states, so that the engine's memory accesses can
// be classified as LLC hits (by state) or misses (serviced from a remote
// cache or from memory). It powers the paper's Figure 10 (L3 miss ratio),
// Figure 11 (cache-line states of L3 hits) and the superlinear lookup
// scaling of Figure 1.
//
// The simulator is a set-associative cache per node over a synthetic
// address space (addresses are handed out by the numasim machine's
// allocator, so distinct allocations never alias). To keep scaled-down
// experiments faithful, the modeled LLC capacity is divided by the same
// factor as the data set (see numasim.Config.CacheScale): the
// cache-resident to memory-bound transition then happens at the same
// relative index size as on the real machine.
package cache

import (
	"fmt"
	"math/bits"
	"sync"

	"eris/internal/topology"
)

// State is a MESIF cache-line state.
type State uint8

// MESIF states. Invalid lines are absent from the cache.
const (
	Invalid State = iota
	Modified
	Exclusive
	Shared
	Forward
	numStates
)

// String returns the one-letter MESIF name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Modified:
		return "M"
	case Exclusive:
		return "E"
	case Shared:
		return "S"
	case Forward:
		return "F"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Result describes how one access was serviced.
type Result struct {
	// Hit is true when the line was present in the requesting node's LLC.
	Hit bool
	// HitState is the state the line was found in (valid only when Hit).
	HitState State
	// FromCache is set on a miss serviced by another node's cache
	// (forwarded line); Source is the forwarding node.
	FromCache bool
	Source    topology.NodeID
	// WritebackHome/WritebackBytes describe a dirty eviction triggered by
	// this access; WritebackBytes is zero when no writeback happened.
	WritebackHome  topology.NodeID
	WritebackBytes int64
}

// Stats are per-node access counters.
type Stats struct {
	Accesses    uint64
	Misses      uint64
	HitsByState [numStates]uint64
	FromCache   uint64 // misses serviced by a remote cache
	FromMemory  uint64 // misses serviced by DRAM
	Writebacks  uint64
}

// Hits returns the total hit count.
func (s *Stats) Hits() uint64 { return s.Accesses - s.Misses }

// MissRatio returns misses/accesses, or 0 for an idle cache.
func (s *Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// HitStateShare returns the fraction of all hits that found the line in one
// of the given states (e.g. Modified+Exclusive for Figure 11).
func (s *Stats) HitStateShare(states ...State) float64 {
	hits := s.Hits()
	if hits == 0 {
		return 0
	}
	var n uint64
	for _, st := range states {
		n += s.HitsByState[st]
	}
	return float64(n) / float64(hits)
}

type line struct {
	tag   uint64 // full line address; 0 is never a valid tag (addr space starts above 0)
	home  uint8  // home node of the data
	state State
}

type llc struct {
	ways    int
	setMask uint64
	lines   []line // numSets * ways
	victim  []uint8
	stats   Stats
}

// System simulates the LLCs of all nodes of one machine.
//
// A single mutex guards the whole system: cross-node coherence transitions
// touch several LLCs at once, and the engine's host has no real parallelism
// to lose; the simple locking keeps the state machine obviously correct.
type System struct {
	mu   sync.Mutex
	topo *topology.Topology
	llcs []llc
	dir  map[uint64]uint64 // line address -> holder node bitmask
}

// LineBytes is the modeled cache line size, as on the paper's hardware.
const LineBytes = 64

// lineShift converts a byte address into a line address.
const lineShift = 6 // log2(LineBytes)

// New builds a cache system for the topology. scale divides each node's
// modeled LLC capacity (use the data scale-down factor).
func New(topo *topology.Topology, scale float64) (*System, error) {
	if scale < 1 {
		scale = 1
	}
	if topo.NumNodes() > 64 {
		return nil, fmt.Errorf("cache: directory bitmask supports at most 64 nodes, topology has %d", topo.NumNodes())
	}
	s := &System{
		topo: topo,
		llcs: make([]llc, topo.NumNodes()),
		dir:  make(map[uint64]uint64),
	}
	for i := range s.llcs {
		n := &topo.Nodes[i]
		ways := n.LLCWays
		if ways <= 0 {
			ways = 16
		}
		capacity := int64(float64(n.LLCBytes) / scale)
		sets := capacity / (LineBytes * int64(ways))
		if sets < 4 {
			sets = 4
		}
		// Round down to a power of two for mask indexing.
		sets = int64(1) << (63 - bits.LeadingZeros64(uint64(sets)))
		s.llcs[i] = llc{
			ways:    ways,
			setMask: uint64(sets - 1),
			lines:   make([]line, sets*int64(ways)),
			victim:  make([]uint8, sets),
		}
	}
	return s, nil
}

//eris:hotpath
func (s *System) setIndex(c *llc, lineAddr uint64) uint64 {
	// Fibonacci hashing spreads the synthetic (dense) address space.
	return (lineAddr * 0x9E3779B97F4A7C15) >> 32 & c.setMask
}

//eris:hotpath
func (c *llc) probe(set uint64, tag uint64) int {
	base := int(set) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].tag == tag && c.lines[base+w].state != Invalid {
			return base + w
		}
	}
	return -1
}

// Access simulates one memory access of `node` to the cache line containing
// addr, whose data lives on home. It returns how the access was serviced.
// Accesses spanning multiple lines must be split by the caller.
//
//eris:hotpath
func (s *System) Access(node topology.NodeID, home topology.NodeID, addr uint64, write bool) Result {
	lineAddr := addr >> lineShift
	s.mu.Lock() //eris:allowblock coherence-simulator state is globally shared by design; bounded in-memory critical section
	defer s.mu.Unlock()

	c := &s.llcs[node]
	c.stats.Accesses++
	set := s.setIndex(c, lineAddr)
	if i := c.probe(set, lineAddr); i >= 0 {
		st := c.lines[i].state
		c.stats.HitsByState[st]++
		if write && st != Modified {
			if st == Shared || st == Forward {
				s.invalidateOthers(lineAddr, node)
			}
			c.lines[i].state = Modified
		}
		return Result{Hit: true, HitState: st}
	}

	// Miss: find where the data comes from, then install the line.
	c.stats.Misses++
	res := Result{Source: -1}
	holders := s.dir[lineAddr]
	otherHolders := holders &^ (1 << uint(node))
	if otherHolders != 0 {
		res.FromCache = true
		res.Source = topology.NodeID(bits.TrailingZeros64(otherHolders))
		c.stats.FromCache++
		if write {
			s.invalidateOthers(lineAddr, node)
		} else {
			// MESIF: the previous holders drop to Shared; the requester
			// receives the line in Forward state (it is the newest sharer
			// and will service the next request).
			s.downgradeOthers(lineAddr, node)
		}
	} else {
		c.stats.FromMemory++
	}

	newState := Exclusive
	switch {
	case write:
		newState = Modified
	case res.FromCache:
		newState = Forward
	}
	wbHome, wbBytes := s.install(node, c, set, lineAddr, uint8(home), newState)
	res.WritebackHome, res.WritebackBytes = wbHome, wbBytes
	if wbBytes > 0 {
		c.stats.Writebacks++
	}
	return res
}

// install places the line into the set, evicting the victim way, and
// returns writeback info for a dirty victim.
//
//eris:hotpath
func (s *System) install(node topology.NodeID, c *llc, set uint64, lineAddr uint64, home uint8, st State) (topology.NodeID, int64) {
	base := int(set) * c.ways
	way := -1
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w].state == Invalid {
			way = base + w
			break
		}
	}
	var wbHome topology.NodeID = -1
	var wbBytes int64
	if way < 0 {
		// Round-robin victim selection within the set.
		v := c.victim[set]
		c.victim[set] = uint8((int(v) + 1) % c.ways)
		way = base + int(v)
		old := c.lines[way]
		s.removeHolder(old.tag, node)
		if old.state == Modified {
			wbHome, wbBytes = topology.NodeID(old.home), LineBytes
		}
	}
	c.lines[way] = line{tag: lineAddr, home: home, state: st}
	s.dir[lineAddr] |= 1 << uint(node)
	return wbHome, wbBytes
}

// invalidateOthers removes the line from every LLC except keep's.
//
//eris:hotpath
func (s *System) invalidateOthers(lineAddr uint64, keep topology.NodeID) {
	holders := s.dir[lineAddr] &^ (1 << uint(keep))
	for holders != 0 {
		n := bits.TrailingZeros64(holders)
		holders &^= 1 << uint(n)
		c := &s.llcs[n]
		set := s.setIndex(c, lineAddr)
		if i := c.probe(set, lineAddr); i >= 0 {
			c.lines[i].state = Invalid
		}
	}
	s.dir[lineAddr] &= 1 << uint(keep)
	if s.dir[lineAddr] == 0 {
		delete(s.dir, lineAddr)
	}
}

// downgradeOthers moves every other holder of the line to Shared.
//
//eris:hotpath
func (s *System) downgradeOthers(lineAddr uint64, requester topology.NodeID) {
	holders := s.dir[lineAddr] &^ (1 << uint(requester))
	for holders != 0 {
		n := bits.TrailingZeros64(holders)
		holders &^= 1 << uint(n)
		c := &s.llcs[n]
		set := s.setIndex(c, lineAddr)
		if i := c.probe(set, lineAddr); i >= 0 {
			// A Modified line is written back to memory when it drops to
			// Shared; we fold that writeback into the forwarding cost and
			// only track the state change here.
			c.lines[i].state = Shared
		}
	}
}

// removeHolder drops node from the directory entry of lineAddr.
//
//eris:hotpath
func (s *System) removeHolder(lineAddr uint64, node topology.NodeID) {
	if m, ok := s.dir[lineAddr]; ok {
		m &^= 1 << uint(node)
		if m == 0 {
			delete(s.dir, lineAddr)
		} else {
			s.dir[lineAddr] = m
		}
	}
}

// TotalStats sums the counters of all nodes.
func (s *System) TotalStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total Stats
	for i := range s.llcs {
		st := &s.llcs[i].stats
		total.Accesses += st.Accesses
		total.Misses += st.Misses
		total.FromCache += st.FromCache
		total.FromMemory += st.FromMemory
		total.Writebacks += st.Writebacks
		for j := range st.HitsByState {
			total.HitsByState[j] += st.HitsByState[j]
		}
	}
	return total
}

// Flush empties every cache and the directory.
func (s *System) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.llcs {
		for j := range s.llcs[i].lines {
			s.llcs[i].lines[j] = line{}
		}
	}
	s.dir = make(map[uint64]uint64)
}
