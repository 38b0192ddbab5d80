package prefixtree

import (
	"fmt"
	"math/bits"

	"eris/internal/topology"
)

// Extracted is a detached subtree produced by ExtractRange: the unit of the
// load balancer's partition transfers. Within the same Store it can be
// grafted into another tree in O(boundary) time (the paper's "link"
// mechanism); for cross-node transfers it is flattened into the KV exchange
// format, streamed, rebuilt on the target node, and discarded here.
type Extracted struct {
	store *Store
	root  uint32
	count int64
}

// Count returns the number of keys in the detached subtree.
func (ex *Extracted) Count() int64 { return ex.count }

// ExtractRange detaches all keys in [lo, hi] (inclusive) from the tree and
// returns them as a subtree. Only nodes on the two boundary paths are
// visited or copied; interior subtrees move by reference.
func (t *Tree) ExtractRange(core topology.CoreID, lo, hi uint64) *Extracted {
	s := t.src.Store()
	s.checkKey(lo)
	if hi > s.MaxKey() {
		hi = s.MaxKey()
	}
	ex := &Extracted{store: s}
	if lo > hi {
		return ex
	}
	root := t.root.Load()
	if root == nilRef {
		return ex
	}
	moved, count, whole := t.extractNode(core, root, 0, 0, lo, hi)
	if whole {
		t.root.Store(nilRef)
	}
	ex.root, ex.count = moved, count
	t.count.Add(-count)
	return ex
}

// extractNode moves the keys of [lo,hi] out of ref. It returns the ref of a
// node holding the moved keys (nilRef when none), how many keys moved, and
// whether ref itself was moved wholesale (the caller must then clear its
// slot; counts above are handled by the caller).
func (t *Tree) extractNode(core topology.CoreID, ref uint32, level int, prefix, lo, hi uint64) (uint32, int64, bool) {
	s := t.src.Store()
	m := s.machine
	span := subtreeMask(uint(s.cfg.KeyBits - s.cfg.PrefixBits*level))
	nodeLo, nodeHi := prefix, prefix|span
	if nodeLo > hi || nodeHi < lo {
		return nilRef, 0, false
	}
	if lo <= nodeLo && nodeHi <= hi {
		// Entire node range requested: move by reference, O(1).
		return ref, s.nodeCount(ref, level), true
	}

	if level == s.levels-1 {
		// Boundary leaf: move the matching entries into a twin leaf.
		sl, off := s.leafAt(ref)
		home, addr := s.leafAddr(ref, 0)
		m.Read(core, home, addr, int64(s.fanout)*8, scanOverlap)
		twin := nilRef
		var moved int64
		for j := 0; j < s.fanout; j++ {
			key := prefix | uint64(j)
			if key < lo || key > hi {
				continue
			}
			w, bit := off*s.bitmapWords+j/64, uint64(1)<<uint(j%64)
			if sl.bitmap[w].Load()&bit == 0 {
				continue
			}
			if twin == nilRef {
				twin = t.src.allocLeaf()
				thome, twinAddr := s.leafAddr(twin, 0)
				m.Write(core, thome, twinAddr, 64, scanOverlap)
			}
			tsl, toff := s.leafAt(twin)
			tsl.values[toff*s.fanout+j].Store(sl.values[off*s.fanout+j].Load())
			tsl.bitmap[toff*s.bitmapWords+j/64].Or(bit)
			sl.bitmap[w].And(^bit)
			moved++
		}
		if moved > 0 {
			s.leafCount(ref).Add(-moved)
			s.leafCount(twin).Add(moved)
		}
		return twin, moved, false
	}

	// Boundary inner node: move fully covered children by reference and
	// recurse into the (at most two) partially covered ones.
	shift := uint(s.cfg.KeyBits - s.cfg.PrefixBits*(level+1))
	home, addr := s.innerAddr(ref, 0)
	m.Read(core, home, addr, int64(s.fanout)*4, scanOverlap)
	twin := nilRef
	var moved int64
	for j := 0; j < s.fanout; j++ {
		childPrefix := prefix | uint64(j)<<shift
		childMask := subtreeMask(shift)
		if childPrefix > hi || childPrefix|childMask < lo {
			continue
		}
		slot := s.innerSlot(ref, j)
		child := slot.Load()
		if child == nilRef {
			continue
		}
		sub, c, whole := t.extractNode(core, child, level+1, childPrefix, lo, hi)
		if whole {
			slot.Store(nilRef)
		}
		if sub == nilRef {
			continue
		}
		if twin == nilRef {
			twin = t.src.allocInner()
			thome, twinAddr := s.innerAddr(twin, 0)
			m.Write(core, thome, twinAddr, 64, scanOverlap)
		}
		s.innerSlot(twin, j).Store(sub)
		moved += c
	}
	if moved > 0 {
		s.innerCount(ref).Add(-moved)
		s.innerCount(twin).Add(moved)
	}
	return twin, moved, false
}

// Link grafts a detached subtree into the tree. Both must share the same
// Store (i.e. live on the same NUMA node). Only boundary nodes are merged;
// all interior structure moves by reference — this is the cheap intra-node
// transfer of Figure 7.
//
// The subtree's key range is normally disjoint from the tree's contents,
// but fault recovery can violate that: a re-fetched range may collide with
// keys the target accepted after adopting ownership. Keys already present
// keep their local (newer) value, and the counters reflect only the keys
// actually added — a blind count add here corrupts the count/bitmap
// coherence every invariant check relies on.
func (t *Tree) Link(core topology.CoreID, ex *Extracted) {
	if ex.store != t.src.Store() {
		panic("prefixtree: Link across stores; use Flatten + BulkUpsert for cross-node transfers")
	}
	if ex.root == nilRef {
		return
	}
	old := t.root.Load()
	merged, added := t.mergeNode(core, old, ex.root, 0)
	t.root.Store(merged)
	t.count.Add(added)
	ex.root, ex.count = nilRef, 0
}

// mergeNode merges b into a (both at the same level), returning the result
// and the number of keys that were not already present in a.
func (t *Tree) mergeNode(core topology.CoreID, a, b uint32, level int) (uint32, int64) {
	s := t.src.Store()
	if a == nilRef {
		return b, s.nodeCount(b, level)
	}
	if b == nilRef {
		return a, 0
	}
	m := s.machine
	if level == s.levels-1 {
		asl, aoff := s.leafAt(a)
		bsl, boff := s.leafAt(b)
		home, addr := s.leafAddr(a, 0)
		m.Read(core, home, addr, int64(s.fanout)*8, scanOverlap)
		m.Write(core, home, addr, 64, scanOverlap)
		var moved int64
		for w := 0; w < s.bitmapWords; w++ {
			bm := bsl.bitmap[boff*s.bitmapWords+w].Load()
			if bm == 0 {
				continue
			}
			// Only bits absent from a move over; for keys present on both
			// sides a's value is newer (it was written under the current
			// ownership of the range) and wins.
			fresh := bm &^ asl.bitmap[aoff*s.bitmapWords+w].Load()
			for bmi := fresh; bmi != 0; bmi &= bmi - 1 {
				j := w*64 + bits.TrailingZeros64(bmi)
				asl.values[aoff*s.fanout+j].Store(bsl.values[boff*s.fanout+j].Load())
			}
			asl.bitmap[aoff*s.bitmapWords+w].Or(fresh)
			moved += int64(popcount64(fresh))
		}
		s.leafCount(a).Add(moved)
		t.src.freeLeafNode(b)
		return a, moved
	}
	home, addr := s.innerAddr(a, 0)
	m.Read(core, home, addr, int64(s.fanout)*4, scanOverlap)
	var added int64
	for j := 0; j < s.fanout; j++ {
		bChild := s.innerSlot(b, j).Load()
		if bChild == nilRef {
			continue
		}
		slot := s.innerSlot(a, j)
		aChild := slot.Load()
		merged, n := t.mergeNode(core, aChild, bChild, level+1)
		slot.Store(merged)
		added += n
	}
	s.innerCount(a).Add(added)
	t.src.freeInnerNode(b)
	return a, added
}

// Flatten serializes the detached subtree into the sorted KV exchange
// format, charging a sequential read of the subtree's memory (the source
// AEU "flattens the partition ... and streams it sequentially").
func (ex *Extracted) Flatten(core topology.CoreID) []KV {
	if ex.root == nilRef {
		return nil
	}
	out := make([]KV, 0, ex.count)
	ex.flattenNode(core, ex.root, 0, 0, &out)
	return out
}

func (ex *Extracted) flattenNode(core topology.CoreID, ref uint32, level int, prefix uint64, out *[]KV) {
	s := ex.store
	m := s.machine
	if level == s.levels-1 {
		sl, off := s.leafAt(ref)
		m.Stream(core, sl.block.Home, s.leafNodeBytes)
		for j := 0; j < s.fanout; j++ {
			w, bit := off*s.bitmapWords+j/64, uint64(1)<<uint(j%64)
			if sl.bitmap[w].Load()&bit != 0 {
				*out = append(*out, KV{Key: prefix | uint64(j), Value: sl.values[off*s.fanout+j].Load()})
			}
		}
		return
	}
	sl, _ := s.innerAt(ref)
	m.Stream(core, sl.block.Home, s.innerNodeBytes)
	shift := uint(s.cfg.KeyBits - s.cfg.PrefixBits*(level+1))
	for j := 0; j < s.fanout; j++ {
		child := s.innerSlot(ref, j).Load()
		if child != nilRef {
			ex.flattenNode(core, child, level+1, prefix|uint64(j)<<shift, out)
		}
	}
}

// Discard releases every node of the detached subtree back to src, which
// must be a session on the same store (the source AEU frees its memory
// after a cross-node copy completes).
func (ex *Extracted) Discard(core topology.CoreID, src nodeSource) {
	if src.Store() != ex.store {
		panic("prefixtree: Discard with a session of another store")
	}
	if ex.root != nilRef {
		discardNode(ex.store, src, ex.root, 0)
		ex.root, ex.count = nilRef, 0
	}
}

func discardNode(s *Store, src nodeSource, ref uint32, level int) {
	if level == s.levels-1 {
		src.freeLeafNode(ref)
		return
	}
	for j := 0; j < s.fanout; j++ {
		if child := s.innerSlot(ref, j).Load(); child != nilRef {
			discardNode(s, src, child, level+1)
		}
	}
	src.freeInnerNode(ref)
}

// RebuildFrom bulk-loads a flattened exchange stream into the tree,
// charging sequential writes to the tree's local memory (the target AEU
// "converts the data stream back to an index").
func (t *Tree) RebuildFrom(core topology.CoreID, kvs []KV) {
	s := t.src.Store()
	m := s.machine
	// The stream arrives sorted; amortize the modeled cost as a sequential
	// write of the rebuilt structure rather than per-key random writes.
	m.Stream(core, homeOfSource(t.src), int64(len(kvs))*16)
	t.upsertBatch(core, kvs, 16)
}

// homeOfSource reports the home node new allocations of src land on.
// Single-node stores record their home at construction, so the answer is
// exact even before the first slab exists (an empty target store must not
// misreport node 0 — it would charge the rebuild stream to the wrong
// multiprocessor). Interleaved stores have no single home; the first slab's
// home is the approximation used for reporting.
func homeOfSource(src nodeSource) topology.NodeID {
	s := src.Store()
	if s.homeKnown {
		return s.home
	}
	s.mu.Lock() //eris:allowblock bounded first-slab peek; taken once per rebuild, not per tuple
	defer s.mu.Unlock()
	if s.innerLen > 0 {
		return s.inner[0].block.Home
	}
	if s.leafLen > 0 {
		return s.leaf[0].block.Home
	}
	return 0
}

// CheckCounts verifies that every inner node's counter equals the sum of
// its children and that the tree count matches the root; test support.
func (t *Tree) CheckCounts() error {
	s := t.src.Store()
	root := t.root.Load()
	n, err := checkNodeCounts(s, root, 0)
	if err != nil {
		return err
	}
	if n != t.count.Load() {
		return fmt.Errorf("prefixtree: tree count %d != actual %d", t.count.Load(), n)
	}
	return nil
}

func checkNodeCounts(s *Store, ref uint32, level int) (int64, error) {
	if ref == nilRef {
		return 0, nil
	}
	if level == s.levels-1 {
		sl, off := s.leafAt(ref)
		var n int64
		for w := 0; w < s.bitmapWords; w++ {
			n += int64(popcount64(sl.bitmap[off*s.bitmapWords+w].Load()))
		}
		if c := s.leafCount(ref).Load(); c != n {
			return 0, fmt.Errorf("prefixtree: leaf %d count %d != bitmap %d", ref, c, n)
		}
		return n, nil
	}
	var n int64
	for j := 0; j < s.fanout; j++ {
		c, err := checkNodeCounts(s, s.innerSlot(ref, j).Load(), level+1)
		if err != nil {
			return 0, err
		}
		n += c
	}
	if c := s.innerCount(ref).Load(); c != n {
		return 0, fmt.Errorf("prefixtree: inner %d (level %d) count %d != children sum %d", ref, level, c, n)
	}
	return n, nil
}
