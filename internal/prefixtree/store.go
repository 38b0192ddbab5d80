// Package prefixtree implements the order-preserving generalized prefix
// tree (trie) that ERIS uses as its index structure (Böhm et al., BTW 2011;
// Section 4 of the ERIS paper). The tree is in-memory optimized, supports
// high-throughput upserts, and — unlike a hash table — preserves key order,
// which range scans and the load balancer's range partitioning depend on.
//
// Storage layout: tree nodes live in slab-allocated pools owned by a Store.
// One Store exists per (data object, NUMA node), shared by all AEUs of that
// node, so moving a key range between two AEUs on the same multiprocessor
// is a pure reference graft (the paper's cheap "link" transfer) — no bytes
// move. Cross-node transfers flatten a subtree into an exchange format and
// rebuild it in the target node's Store (the "copy" transfer).
//
// Every operation takes the calling core, and each visited node costs a
// memory access at the node's home multiprocessor; this is what makes the
// shared (NUMA-agnostic) baseline measurably slower than partitioned ERIS
// trees. The data-path operations (batch lookup, upsert and delete, and
// scans) add those costs up in one numasim.Tally per call and charge the
// simulated machine once, at the end of the batch. Batch lookups descend
// level by level, a group of keys at a time, so that their memory misses
// overlap the way the cost model assumes.
package prefixtree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/topology"
)

// Config shapes a tree.
type Config struct {
	// KeyBits is the width of the key domain (keys must fit in KeyBits
	// bits). Default 64.
	KeyBits int
	// PrefixBits is the span of one tree level (the paper's default is 8,
	// i.e. fanout 256). Must divide KeyBits and be one of 2, 4, 8.
	PrefixBits int
}

// Slab geometry: every pool allocates nodes in slabs of slabNodes, and holds
// at most maxSlabs slabs.
const (
	slabNodes = 64
	maxSlabs  = 1 << 14
)

func (c Config) withDefaults() Config {
	if c.KeyBits == 0 {
		c.KeyBits = 64
	}
	if c.PrefixBits == 0 {
		c.PrefixBits = 8
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch c.PrefixBits {
	case 2, 4, 8:
	default:
		return fmt.Errorf("prefixtree: PrefixBits must be 2, 4 or 8, got %d", c.PrefixBits)
	}
	if c.KeyBits <= 0 || c.KeyBits > 64 || c.KeyBits%c.PrefixBits != 0 {
		return fmt.Errorf("prefixtree: KeyBits %d must be in (0,64] and divisible by PrefixBits %d", c.KeyBits, c.PrefixBits)
	}
	return nil
}

// nilRef marks an absent child; node references are 1-based.
const nilRef uint32 = 0

// innerSlab holds slabNodes inner nodes: fanout child slots plus a subtree
// key count per node.
type innerSlab struct {
	slots  []atomic.Uint32 // fanout per node
	counts []atomic.Int64  // one per node
	block  mem.Block
}

// leafSlab holds slabNodes leaf nodes: fanout values, a presence bitmap and
// an entry count per node.
type leafSlab struct {
	values []atomic.Uint64 // fanout per node
	bitmap []atomic.Uint64 // bitmapWords per node
	counts []atomic.Int64  // one per node
	block  mem.Block
}

// Store owns the node pools of all trees of one data object on one NUMA
// node (or, for the NUMA-agnostic shared baseline, of the whole machine
// with interleaved slabs). Slab allocation is thread-safe; node-level
// recycling goes through per-AEU Sessions.
type Store struct {
	machine *numasim.Machine
	cfg     Config
	alloc   allocFunc

	// home is the node new slabs land on when the allocator is single-node
	// (ERIS stores, SingleNode baseline); homeKnown is false for the
	// interleaved baseline, where the home must be derived per slab.
	home      topology.NodeID
	homeKnown bool

	fanout      int
	levels      int // total levels including the leaf level
	bitmapWords int

	innerNodeBytes int64
	leafNodeBytes  int64

	// Slab directories have a fixed length of maxSlabs so that readers can
	// index them without racing against growth; only the pointers at
	// [0, innerLen) / [0, leafLen) are populated (under mu).
	mu        sync.Mutex
	inner     []*innerSlab
	leaf      []*leafSlab
	innerLen  int
	leafLen   int
	innerNext int // next unused node in the newest inner slab
	leafNext  int
}

// allocFunc produces the backing Block for a new slab; it decides the home
// node (local for ERIS stores, round-robin for the interleaved baseline).
type allocFunc func(size int64) mem.Block

// NewStore creates a store whose slabs are allocated on a single node
// through mgr.
func NewStore(machine *numasim.Machine, mgr *mem.Manager, cfg Config) (*Store, error) {
	s, err := newStore(machine, cfg, mgr.Alloc)
	if err == nil {
		s.home, s.homeKnown = mgr.Node(), true
	}
	return s, err
}

// NewInterleavedStore creates a store whose slabs round-robin across all
// node managers, modeling the `numactl --interleave=all` baseline.
func NewInterleavedStore(machine *numasim.Machine, sys *mem.System, cfg Config) (*Store, error) {
	var next atomic.Int64
	nodes := machine.Topology().NumNodes()
	return newStore(machine, cfg, func(size int64) mem.Block {
		n := topology.NodeID(int(next.Add(1)-1) % nodes)
		return sys.Node(n).Alloc(size)
	})
}

// NewSingleNodeStore creates a store allocating everything on one node,
// regardless of who asks — the paper's "Single RAM" worst case.
func NewSingleNodeStore(machine *numasim.Machine, sys *mem.System, node topology.NodeID, cfg Config) (*Store, error) {
	s, err := newStore(machine, cfg, sys.Node(node).Alloc)
	if err == nil {
		s.home, s.homeKnown = node, true
	}
	return s, err
}

func newStore(machine *numasim.Machine, cfg Config, alloc allocFunc) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Store{
		machine: machine,
		cfg:     cfg,
		alloc:   alloc,
		fanout:  1 << cfg.PrefixBits,
		levels:  cfg.KeyBits / cfg.PrefixBits,
	}
	s.bitmapWords = (s.fanout + 63) / 64
	s.innerNodeBytes = int64(s.fanout)*4 + 8
	s.leafNodeBytes = int64(s.fanout)*8 + int64(s.bitmapWords)*8 + 8
	s.inner = make([]*innerSlab, maxSlabs)
	s.leaf = make([]*leafSlab, maxSlabs)
	return s, nil
}

// Config returns the store's effective configuration.
func (s *Store) Config() Config { return s.cfg }

// MaxKey returns the largest representable key.
//
//eris:hotpath
func (s *Store) MaxKey() uint64 {
	if s.cfg.KeyBits == 64 {
		return ^uint64(0)
	}
	return 1<<uint(s.cfg.KeyBits) - 1
}

// growInner appends a fresh inner slab and reports false when the slab
// directory is full; callers hold s.mu.
//
//eris:hotpath
func (s *Store) growInner() bool {
	if s.innerLen == len(s.inner) {
		return false
	}
	s.inner[s.innerLen] = s.newInnerSlab() //eris:allowalloc slab growth: one slab per slabNodes nodes, amortized over the nodes' lifetime
	s.innerLen++
	s.innerNext = 0
	return true
}

//eris:hotpath
func (s *Store) growLeaf() bool {
	if s.leafLen == len(s.leaf) {
		return false
	}
	s.leaf[s.leafLen] = s.newLeafSlab() //eris:allowalloc slab growth: one slab per slabNodes nodes, amortized over the nodes' lifetime
	s.leafLen++
	s.leafNext = 0
	return true
}

func (s *Store) newInnerSlab() *innerSlab {
	return &innerSlab{
		slots:  make([]atomic.Uint32, slabNodes*s.fanout),
		counts: make([]atomic.Int64, slabNodes),
		block:  s.alloc(slabNodes * s.innerNodeBytes),
	}
}

func (s *Store) newLeafSlab() *leafSlab {
	return &leafSlab{
		values: make([]atomic.Uint64, slabNodes*s.fanout),
		bitmap: make([]atomic.Uint64, slabNodes*s.bitmapWords),
		counts: make([]atomic.Int64, slabNodes),
		block:  s.alloc(slabNodes * s.leafNodeBytes),
	}
}

// allocInnerNodes appends want fresh inner node refs to out; used by
// Sessions to refill their free lists in batches. It reports false when the
// slab directory is exhausted.
//
//eris:hotpath
func (s *Store) allocInnerNodes(want int, out []uint32) ([]uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(out) < want {
		if s.innerLen == 0 || s.innerNext == slabNodes {
			if !s.growInner() {
				return out, false
			}
		}
		slab := s.innerLen - 1
		// Refs are 1-based: ref = global node index + 1.
		out = append(out, uint32(slab*slabNodes+s.innerNext)+1)
		s.innerNext++
	}
	return out, true
}

//eris:hotpath
func (s *Store) allocLeafNodes(want int, out []uint32) ([]uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(out) < want {
		if s.leafLen == 0 || s.leafNext == slabNodes {
			if !s.growLeaf() {
				return out, false
			}
		}
		slab := s.leafLen - 1
		out = append(out, uint32(slab*slabNodes+s.leafNext)+1)
		s.leafNext++
	}
	return out, true
}

func (s *Store) slabsExhausted(kind string) {
	panic(fmt.Sprintf("prefixtree: %s allocation failed: slab limit %d exhausted", kind, maxSlabs))
}

// innerAt resolves an inner node ref to its slab and intra-slab offset.
//
//eris:hotpath
func (s *Store) innerAt(ref uint32) (*innerSlab, int) {
	idx := int(ref - 1)
	return s.inner[idx/slabNodes], idx % slabNodes
}

//eris:hotpath
func (s *Store) leafAt(ref uint32) (*leafSlab, int) {
	idx := int(ref - 1)
	return s.leaf[idx/slabNodes], idx % slabNodes
}

// innerSlot returns the child slot j of inner node ref.
//
//eris:hotpath
func (s *Store) innerSlot(ref uint32, j int) *atomic.Uint32 {
	sl, off := s.innerAt(ref)
	return &sl.slots[off*s.fanout+j]
}

// innerCount returns the subtree key counter of inner node ref.
//
//eris:hotpath
func (s *Store) innerCount(ref uint32) *atomic.Int64 {
	sl, off := s.innerAt(ref)
	return &sl.counts[off]
}

//eris:hotpath
func (s *Store) leafCount(ref uint32) *atomic.Int64 {
	sl, off := s.leafAt(ref)
	return &sl.counts[off]
}

// innerAddr returns (home, synthetic address) of slot j in inner node ref.
//
//eris:hotpath
func (s *Store) innerAddr(ref uint32, j int) (topology.NodeID, uint64) {
	sl, off := s.innerAt(ref)
	return sl.block.Home, sl.block.Addr + uint64(int64(off)*s.innerNodeBytes) + uint64(j*4)
}

// leafAddr returns (home, synthetic address) of value j in leaf node ref.
//
//eris:hotpath
func (s *Store) leafAddr(ref uint32, j int) (topology.NodeID, uint64) {
	sl, off := s.leafAt(ref)
	return sl.block.Home, sl.block.Addr + uint64(int64(off)*s.leafNodeBytes) + uint64(j*8)
}

// zeroInner clears a recycled inner node.
//
//eris:hotpath
func (s *Store) zeroInner(ref uint32) {
	sl, off := s.innerAt(ref)
	base := off * s.fanout
	for j := 0; j < s.fanout; j++ {
		sl.slots[base+j].Store(nilRef)
	}
	sl.counts[off].Store(0)
}

//eris:hotpath
func (s *Store) zeroLeaf(ref uint32) {
	sl, off := s.leafAt(ref)
	for w := 0; w < s.bitmapWords; w++ {
		sl.bitmap[off*s.bitmapWords+w].Store(0)
	}
	sl.counts[off].Store(0)
}

// MemoryBytes reports the simulated bytes held by the store's slabs.
func (s *Store) MemoryBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.innerLen)*slabNodes*s.innerNodeBytes +
		int64(s.leafLen)*slabNodes*s.leafNodeBytes
}

// refill batch size for session free lists.
const sessionRefill = 16

// Session is an AEU-local node allocator over a Store. It is not safe for
// concurrent use; the NUMA-agnostic baseline wraps one in a LockedSession.
type Session struct {
	store     *Store
	freeInner []uint32
	freeLeaf  []uint32
}

// NewSession creates a session on the store.
func (s *Store) NewSession() *Session {
	return &Session{store: s}
}

type nodeSource interface {
	allocInner() uint32
	allocLeaf() uint32
	freeInnerNode(ref uint32)
	freeLeafNode(ref uint32)
	Store() *Store
}

// Store returns the backing store.
func (se *Session) Store() *Store { return se.store }

//eris:hotpath
func (se *Session) allocInner() uint32 {
	if n := len(se.freeInner); n > 0 {
		ref := se.freeInner[n-1]
		se.freeInner = se.freeInner[:n-1]
		se.store.zeroInner(ref)
		return ref
	}
	out, ok := se.store.allocInnerNodes(sessionRefill, se.freeInner)
	if !ok {
		se.store.slabsExhausted("inner") //eris:allowalloc cold panic path: the slab directory is full
	}
	se.freeInner = out
	ref := se.freeInner[len(se.freeInner)-1]
	se.freeInner = se.freeInner[:len(se.freeInner)-1]
	return ref
}

//eris:hotpath
func (se *Session) allocLeaf() uint32 {
	if n := len(se.freeLeaf); n > 0 {
		ref := se.freeLeaf[n-1]
		se.freeLeaf = se.freeLeaf[:n-1]
		se.store.zeroLeaf(ref)
		return ref
	}
	out, ok := se.store.allocLeafNodes(sessionRefill, se.freeLeaf)
	if !ok {
		se.store.slabsExhausted("leaf") //eris:allowalloc cold panic path: the slab directory is full
	}
	se.freeLeaf = out
	ref := se.freeLeaf[len(se.freeLeaf)-1]
	se.freeLeaf = se.freeLeaf[:len(se.freeLeaf)-1]
	return ref
}

//eris:hotpath
func (se *Session) freeInnerNode(ref uint32) { se.freeInner = append(se.freeInner, ref) }

//eris:hotpath
func (se *Session) freeLeafNode(ref uint32) { se.freeLeaf = append(se.freeLeaf, ref) }

// LockedSession is a mutex-guarded Session for the shared baseline, where
// many worker threads insert into one tree concurrently.
type LockedSession struct {
	mu sync.Mutex
	se *Session
}

// NewLockedSession wraps a fresh session of the store.
func (s *Store) NewLockedSession() *LockedSession {
	return &LockedSession{se: s.NewSession()}
}

// Store returns the backing store.
func (ls *LockedSession) Store() *Store { return ls.se.store }

func (ls *LockedSession) allocInner() uint32 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.se.allocInner()
}

func (ls *LockedSession) allocLeaf() uint32 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.se.allocLeaf()
}

func (ls *LockedSession) freeInnerNode(ref uint32) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.se.freeInnerNode(ref)
}

func (ls *LockedSession) freeLeafNode(ref uint32) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.se.freeLeafNode(ref)
}
