package prefixtree

import (
	"fmt"
	"math/bits"

	"sync/atomic"

	"eris/internal/topology"
)

// KV is one key/value pair of the flattened exchange format used by
// cross-node partition transfers.
type KV struct {
	Key   uint64
	Value uint64
}

// computeNSPerLevel is the modeled CPU cost of one tree-level descent
// (nibble extraction, bounds check, branch) on top of the memory access.
const computeNSPerLevel = 1.0

// Tree is one partition of a prefix-tree index. A Tree is owned by a single
// AEU in ERIS and accessed without locks; the NUMA-agnostic shared baseline
// uses the same type concurrently, which is safe because child installation
// is CAS-based and leaf mutations are atomic.
type Tree struct {
	src   nodeSource
	root  atomic.Uint32
	count atomic.Int64
}

// NewTree creates an empty tree whose nodes come from src (a Session for
// AEU-owned partitions, a LockedSession for the shared baseline).
func NewTree(src nodeSource) *Tree {
	return &Tree{src: src}
}

// Store returns the node store backing this tree.
func (t *Tree) Store() *Store { return t.src.Store() }

// Count returns the number of keys in the tree.
func (t *Tree) Count() int64 { return t.count.Load() }

// nibble extracts the child index for key at level.
func (s *Store) nibble(key uint64, level int) int {
	shift := uint(s.cfg.KeyBits - s.cfg.PrefixBits*(level+1))
	return int(key>>shift) & (s.fanout - 1)
}

// checkKey panics on keys outside the configured domain; catching this in
// tests is cheaper than debugging silent truncation.
func (s *Store) checkKey(key uint64) {
	if key > s.MaxKey() {
		panic(fmt.Sprintf("prefixtree: key %#x exceeds %d-bit domain", key, s.cfg.KeyBits))
	}
}

// Lookup finds key and returns its value. overlap is the number of
// independent lookups the caller has batched (the AEU command-grouping
// optimization); it lets the cost model overlap memory latencies.
func (t *Tree) Lookup(core topology.CoreID, key uint64, overlap int) (uint64, bool) {
	s := t.src.Store()
	s.checkKey(key)
	m := s.machine
	ref := t.root.Load()
	for level := 0; level < s.levels-1; level++ {
		if ref == nilRef {
			return 0, false
		}
		j := s.nibble(key, level)
		home, addr := s.innerAddr(ref, j)
		m.Read(core, home, addr, 4, overlap)
		m.AdvanceNS(core, computeNSPerLevel)
		ref = s.innerSlot(ref, j).Load()
	}
	if ref == nilRef {
		return 0, false
	}
	j := s.nibble(key, s.levels-1)
	home, addr := s.leafAddr(ref, j)
	m.Read(core, home, addr, 8, overlap)
	m.AdvanceNS(core, computeNSPerLevel)
	sl, off := s.leafAt(ref)
	w, bit := off*s.bitmapWords+j/64, uint64(1)<<uint(j%64)
	if sl.bitmap[w].Load()&bit == 0 {
		return 0, false
	}
	return sl.values[off*s.fanout+j].Load(), true
}

// LookupBatch looks up a batch of keys, writing values and presence flags;
// the batch size drives the modeled memory-level parallelism.
func (t *Tree) LookupBatch(core topology.CoreID, keys []uint64, values []uint64, found []bool) {
	overlap := len(keys)
	for i, k := range keys {
		values[i], found[i] = t.Lookup(core, k, overlap)
	}
}

// Upsert inserts or overwrites key and reports whether the key was new.
func (t *Tree) Upsert(core topology.CoreID, key, value uint64, overlap int) bool {
	s := t.src.Store()
	s.checkKey(key)
	m := s.machine

	var path [32]uint32 // inner refs along the descent, for count updates
	depth := 0

	ref := t.rootOrCreate(core)
	for level := 0; level < s.levels-1; level++ {
		path[depth] = ref
		depth++
		j := s.nibble(key, level)
		home, addr := s.innerAddr(ref, j)
		m.Read(core, home, addr, 4, overlap)
		m.AdvanceNS(core, computeNSPerLevel)
		slot := s.innerSlot(ref, j)
		child := slot.Load()
		if child == nilRef {
			child = t.allocNode(level + 1)
			if !slot.CompareAndSwap(nilRef, child) {
				t.freeNode(child, level+1)
				child = slot.Load()
			} else {
				m.Write(core, home, addr, 4, overlap)
			}
		}
		ref = child
	}

	j := s.nibble(key, s.levels-1)
	home, addr := s.leafAddr(ref, j)
	sl, off := s.leafAt(ref)
	sl.values[off*s.fanout+j].Store(value)
	m.Write(core, home, addr, 8, overlap)
	m.AdvanceNS(core, computeNSPerLevel)
	w, bit := off*s.bitmapWords+j/64, uint64(1)<<uint(j%64)
	old := sl.bitmap[w].Or(bit)
	if old&bit != 0 {
		return false // overwrite
	}
	sl.counts[off].Add(1)
	for i := 0; i < depth; i++ {
		s.innerCount(path[i]).Add(1)
	}
	t.count.Add(1)
	return true
}

// UpsertBatch upserts a batch of pairs with overlapped latencies and
// reports how many keys were new.
func (t *Tree) UpsertBatch(core topology.CoreID, kvs []KV) int64 {
	overlap := len(kvs)
	var fresh int64
	for _, kv := range kvs {
		if t.Upsert(core, kv.Key, kv.Value, overlap) {
			fresh++
		}
	}
	return fresh
}

// Delete removes key and reports whether it was present. Nodes emptied by
// deletion stay linked (like the losers of Upsert's install races); only
// their presence bits and counters change, so concurrent readers never see
// a dangling reference.
func (t *Tree) Delete(core topology.CoreID, key uint64, overlap int) bool {
	s := t.src.Store()
	s.checkKey(key)
	m := s.machine

	var path [32]uint32 // inner refs along the descent, for count updates
	depth := 0

	ref := t.root.Load()
	for level := 0; level < s.levels-1; level++ {
		if ref == nilRef {
			return false
		}
		path[depth] = ref
		depth++
		j := s.nibble(key, level)
		home, addr := s.innerAddr(ref, j)
		m.Read(core, home, addr, 4, overlap)
		m.AdvanceNS(core, computeNSPerLevel)
		ref = s.innerSlot(ref, j).Load()
	}
	if ref == nilRef {
		return false
	}
	j := s.nibble(key, s.levels-1)
	home, addr := s.leafAddr(ref, j)
	m.Read(core, home, addr, 8, overlap)
	m.AdvanceNS(core, computeNSPerLevel)
	sl, off := s.leafAt(ref)
	w, bit := off*s.bitmapWords+j/64, uint64(1)<<uint(j%64)
	old := sl.bitmap[w].And(^bit)
	if old&bit == 0 {
		return false // was not present
	}
	m.Write(core, home, addr, 8, overlap)
	sl.counts[off].Add(-1)
	for i := 0; i < depth; i++ {
		s.innerCount(path[i]).Add(-1)
	}
	t.count.Add(-1)
	return true
}

// DeleteBatch deletes a batch of keys with overlapped latencies and reports
// how many were present.
func (t *Tree) DeleteBatch(core topology.CoreID, keys []uint64) int64 {
	overlap := len(keys)
	var removed int64
	for _, k := range keys {
		if t.Delete(core, k, overlap) {
			removed++
		}
	}
	return removed
}

// rootOrCreate returns the root node, installing one on first use.
func (t *Tree) rootOrCreate(core topology.CoreID) uint32 {
	ref := t.root.Load()
	if ref != nilRef {
		return ref
	}
	n := t.allocNode(0)
	if !t.root.CompareAndSwap(nilRef, n) {
		t.freeNode(n, 0)
		return t.root.Load()
	}
	return n
}

// allocNode allocates an inner or leaf node appropriate for level.
func (t *Tree) allocNode(level int) uint32 {
	if level == t.src.Store().levels-1 {
		return t.src.allocLeaf()
	}
	return t.src.allocInner()
}

func (t *Tree) freeNode(ref uint32, level int) {
	if level == t.src.Store().levels-1 {
		t.src.freeLeafNode(ref)
	} else {
		t.src.freeInnerNode(ref)
	}
}

// nodeCount returns the key count of a node at level.
func (s *Store) nodeCount(ref uint32, level int) int64 {
	if ref == nilRef {
		return 0
	}
	if level == s.levels-1 {
		return s.leafCount(ref).Load()
	}
	return s.innerCount(ref).Load()
}

// Scan visits keys in [lo, hi] (inclusive bounds; an inclusive upper bound
// avoids overflow at the top of the key domain) in ascending order, calling
// fn for each until fn returns false. It returns the number of visited
// keys.
func (t *Tree) Scan(core topology.CoreID, lo, hi uint64, fn func(key, value uint64) bool) int64 {
	s := t.src.Store()
	s.checkKey(lo)
	if hi > s.MaxKey() {
		hi = s.MaxKey()
	}
	if lo > hi {
		return 0
	}
	var visited int64
	t.scanNode(core, t.root.Load(), 0, 0, lo, hi, fn, &visited)
	return visited
}

// scanOverlap models the moderate memory-level parallelism of an index
// range scan (prefetchable sibling leaves).
const scanOverlap = 4

func (t *Tree) scanNode(core topology.CoreID, ref uint32, level int, prefix, lo, hi uint64, fn func(uint64, uint64) bool, visited *int64) bool {
	if ref == nilRef {
		return true
	}
	s := t.src.Store()
	m := s.machine
	shift := uint(s.cfg.KeyBits - s.cfg.PrefixBits*(level+1))
	mask := subtreeMask(shift)
	jLo, jHi := 0, s.fanout-1
	if pl := prefixAt(lo, s, level, prefix); pl >= 0 {
		jLo = pl
	}
	if ph := prefixAt(hi, s, level, prefix); ph >= 0 {
		jHi = ph
	}
	if level == s.levels-1 {
		sl, off := s.leafAt(ref)
		home, addr := s.leafAddr(ref, 0)
		m.Read(core, home, addr, int64(s.fanout)*8, scanOverlap)
		for j := jLo; j <= jHi; j++ {
			w, bit := off*s.bitmapWords+j/64, uint64(1)<<uint(j%64)
			if sl.bitmap[w].Load()&bit == 0 {
				continue
			}
			key := prefix | uint64(j)
			if key < lo || key > hi {
				continue
			}
			*visited++
			if !fn(key, sl.values[off*s.fanout+j].Load()) {
				return false
			}
		}
		return true
	}
	home, addr := s.innerAddr(ref, jLo)
	m.Read(core, home, addr, int64(jHi-jLo+1)*4, scanOverlap)
	m.AdvanceNS(core, computeNSPerLevel)
	for j := jLo; j <= jHi; j++ {
		childPrefix := prefix | uint64(j)<<shift
		// Skip subtrees entirely outside the range.
		if childPrefix > hi || childPrefix|mask < lo {
			continue
		}
		if !t.scanNode(core, s.innerSlot(ref, j).Load(), level+1, childPrefix, lo, hi, fn, visited) {
			return false
		}
	}
	return true
}

// subtreeMask returns the mask of key bits below the given shift.
func subtreeMask(shift uint) uint64 {
	if shift >= 64 {
		return ^uint64(0)
	}
	return 1<<shift - 1
}

// prefixAt returns key's nibble at level when key lies inside this node's
// prefix, else -1 (meaning the bound does not constrain this subtree).
func prefixAt(key uint64, s *Store, level int, prefix uint64) int {
	shift := uint(s.cfg.KeyBits - s.cfg.PrefixBits*level)
	var upper uint64
	if shift >= 64 {
		upper = 0
	} else {
		upper = key &^ (1<<shift - 1)
	}
	if upper != prefix {
		return -1
	}
	return s.nibble(key, level)
}

// popcount64 wraps math/bits for readability at call sites.
func popcount64(x uint64) int { return bits.OnesCount64(x) }
