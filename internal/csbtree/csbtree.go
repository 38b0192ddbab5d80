// Package csbtree implements a cache-sensitive B+-tree (Rao & Ross, SIGMOD
// 2000) used by ERIS for its range partition tables: the ordered map from a
// partition's lower key bound to the AEU that owns it. CSB+-trees store all
// children of a node contiguously, so each inner node keeps a single child
// pointer and spends its cache line almost entirely on keys — the right
// trade for a structure that is read on every routed data command but
// rewritten only by the load balancer.
//
// Trees are immutable after Build: the routing layer publishes updates by
// atomically swapping the tree pointer, which keeps readers completely
// latch-free.
package csbtree

import (
	"fmt"
	"sort"
)

// Entry maps the inclusive lower bound of a key range to an owner (an AEU
// index). A table's entries partition the key domain: entry i owns keys in
// [Entries[i].Low, Entries[i+1].Low).
type Entry struct {
	Low   uint64
	Owner uint32
}

// nodeKeys is chosen so one inner node (keys + child index + count) fills
// two 64-byte cache lines, the layout the CSB+ paper recommends for 8-byte
// keys.
const nodeKeys = 14

type node struct {
	keys  [nodeKeys]uint64
	n     uint8
	first int32 // index of the leftmost child (children are contiguous)
}

// Tree is an immutable CSB+-tree over partition entries.
type Tree struct {
	inner   []node
	root    int32
	height  int // 0 = leaves only
	leaves  []Entry
	leafSz  int
	numLeaf int
}

// leafSize is how many entries one leaf groups; leaves are segments of one
// contiguous entry array.
const leafSize = nodeKeys

// Build constructs a tree from entries. Entries must be sorted by Low with
// no duplicates, and the first entry must cover the bottom of the domain
// (Low == 0) so that every key has an owner.
func Build(entries []Entry) (*Tree, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("csbtree: no entries")
	}
	if entries[0].Low != 0 {
		return nil, fmt.Errorf("csbtree: first entry must have Low 0, got %d", entries[0].Low)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Low <= entries[i-1].Low {
			return nil, fmt.Errorf("csbtree: entries not strictly sorted at %d (%d <= %d)",
				i, entries[i].Low, entries[i-1].Low)
		}
	}
	t := &Tree{
		leaves: append([]Entry(nil), entries...),
		leafSz: leafSize,
	}
	t.numLeaf = (len(entries) + leafSize - 1) / leafSize

	// Build inner levels bottom-up. Level 0 sits directly above the leaf
	// segments; each inner node indexes up to nodeKeys+1 children by the
	// smallest Low of each child except the first.
	childLows := make([]uint64, t.numLeaf)
	for i := 0; i < t.numLeaf; i++ {
		childLows[i] = entries[i*leafSize].Low
	}
	childFirst := int32(0) // leaf children are addressed by segment index
	level := 0
	for len(childLows) > 1 {
		numNodes := (len(childLows) + nodeKeys) / (nodeKeys + 1)
		starts := make([]uint64, 0, numNodes)
		base := int32(len(t.inner))
		for i := 0; i < numNodes; i++ {
			lo := i * (nodeKeys + 1)
			hi := lo + nodeKeys + 1
			if hi > len(childLows) {
				hi = len(childLows)
			}
			var nd node
			nd.first = childFirst + int32(lo)
			nd.n = uint8(hi - lo - 1)
			for k := 0; k < hi-lo-1; k++ {
				nd.keys[k] = childLows[lo+k+1]
			}
			t.inner = append(t.inner, nd)
			starts = append(starts, childLows[lo])
		}
		childLows = starts
		childFirst = base
		level++
	}
	t.height = level
	if level > 0 {
		t.root = int32(len(t.inner) - 1)
	}
	return t, nil
}

// Len returns the number of entries.
func (t *Tree) Len() int { return len(t.leaves) }

// Entries returns the underlying sorted entry slice; callers must not
// modify it.
func (t *Tree) Entries() []Entry { return t.leaves }

// Lookup returns the owner of key: the entry with the greatest Low <= key.
//
//eris:hotpath
func (t *Tree) Lookup(key uint64) uint32 {
	return t.leaves[t.lookupIndex(key)].Owner
}

//eris:hotpath
func (t *Tree) lookupIndex(key uint64) int {
	child := int32(0)
	if t.height > 0 {
		cur := t.root
		for lvl := t.height; lvl > 0; lvl-- {
			nd := &t.inner[cur]
			j := 0
			for j < int(nd.n) && key >= nd.keys[j] {
				j++
			}
			next := nd.first + int32(j)
			if lvl == 1 {
				child = next
				break
			}
			cur = next
		}
	}
	// child is a leaf segment index; binary-search within the segment.
	lo := int(child) * t.leafSz
	hi := lo + t.leafSz
	if hi > len(t.leaves) {
		hi = len(t.leaves)
	}
	// Binary search for the first entry with Low > key; the owner is the
	// one before it.
	seg := t.leaves[lo:hi]
	i, j := 0, len(seg)
	for i < j {
		h := int(uint(i+j) >> 1)
		if seg[h].Low > key {
			j = h
		} else {
			i = h + 1
		}
	}
	if i == 0 {
		// key is below the segment's first Low; can only happen for the
		// very first segment when callers pass key < leaves[0].Low, which
		// Build prevents by requiring Low 0.
		return lo
	}
	return lo + i - 1
}

// LookupBatchSorted resolves the owner of every key of an ascending-sorted
// batch: one tree descent for the first key, then a linear merge along the
// ordered entry array. A B-key batch therefore costs one walk plus
// O(B + entries crossed) instead of B independent descents — the batch
// owner-resolution primitive of the routing layer's split path. owners
// must have at least len(keys) elements; duplicate keys are fine, and a
// key that breaks the ascending order falls back to a fresh descent, so
// the result is correct (just slower) for unsorted input.
//
//eris:hotpath
func (t *Tree) LookupBatchSorted(keys []uint64, owners []uint32) {
	if len(keys) == 0 {
		return
	}
	idx := t.lookupIndex(keys[0])
	for i, k := range keys {
		if k < t.leaves[idx].Low {
			idx = t.lookupIndex(k)
		}
		for idx+1 < len(t.leaves) && t.leaves[idx+1].Low <= k {
			idx++
		}
		owners[i] = t.leaves[idx].Owner
	}
}

// Validate checks internal consistency against the entry array; used by
// tests and debug builds.
func (t *Tree) Validate() error {
	for key := range validateProbes(t.leaves) {
		want := flatLookup(t.leaves, key)
		if got := t.lookupIndex(key); got != want {
			return fmt.Errorf("csbtree: lookup(%d) = entry %d, want %d", key, got, want)
		}
	}
	return nil
}

// validateProbes yields probe keys around every boundary.
func validateProbes(entries []Entry) map[uint64]struct{} {
	probes := make(map[uint64]struct{})
	for _, e := range entries {
		probes[e.Low] = struct{}{}
		if e.Low > 0 {
			probes[e.Low-1] = struct{}{}
		}
		probes[e.Low+1] = struct{}{}
	}
	probes[^uint64(0)] = struct{}{}
	return probes
}

func flatLookup(entries []Entry, key uint64) int {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].Low > key })
	if i == 0 {
		return 0
	}
	return i - 1
}
