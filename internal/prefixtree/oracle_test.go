package prefixtree

import "eris/internal/topology"

// The oracle: one key at a time, every visited node charging the machine
// directly (an atomic clock add and route charge per access). The batch
// kernels must return the same results and leave the machine in the same
// state; the equivalence tests compare the two, and the kernel benchmarks
// time the oracle as the per-key baseline.

func oracleLookup(t *Tree, core topology.CoreID, key uint64, overlap int) (uint64, bool) {
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

func oracleLookupBatch(t *Tree, core topology.CoreID, keys []uint64, values []uint64, found []bool) {
	for i, k := range keys {
		values[i], found[i] = oracleLookup(t, core, k, len(keys))
	}
}

func oracleUpsert(t *Tree, core topology.CoreID, key, value uint64, overlap int) bool {
	s := t.src.Store()
	s.checkKey(key)
	m := s.machine

	var path [32]uint32
	depth := 0

	ref := t.rootOrCreate()
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
		return false
	}
	sl.counts[off].Add(1)
	for i := 0; i < depth; i++ {
		s.innerCount(path[i]).Add(1)
	}
	t.count.Add(1)
	return true
}

func oracleUpsertBatch(t *Tree, core topology.CoreID, kvs []KV) int64 {
	var fresh int64
	for _, kv := range kvs {
		if oracleUpsert(t, core, kv.Key, kv.Value, len(kvs)) {
			fresh++
		}
	}
	return fresh
}

func oracleDelete(t *Tree, core topology.CoreID, key uint64, overlap int) bool {
	s := t.src.Store()
	s.checkKey(key)
	m := s.machine

	var path [32]uint32
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
		return false
	}
	m.Write(core, home, addr, 8, overlap)
	sl.counts[off].Add(-1)
	for i := 0; i < depth; i++ {
		s.innerCount(path[i]).Add(-1)
	}
	t.count.Add(-1)
	return true
}

func oracleDeleteBatch(t *Tree, core topology.CoreID, keys []uint64) int64 {
	var removed int64
	for _, k := range keys {
		if oracleDelete(t, core, k, len(keys)) {
			removed++
		}
	}
	return removed
}

func oracleScan(t *Tree, core topology.CoreID, lo, hi uint64, fn func(key, value uint64) bool) int64 {
	s := t.src.Store()
	s.checkKey(lo)
	if hi > s.MaxKey() {
		hi = s.MaxKey()
	}
	if lo > hi {
		return 0
	}
	var visited int64
	oracleScanNode(t, core, t.root.Load(), 0, 0, lo, hi, fn, &visited)
	return visited
}

func oracleScanNode(t *Tree, core topology.CoreID, ref uint32, level int, prefix, lo, hi uint64, fn func(uint64, uint64) bool, visited *int64) bool {
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
		if childPrefix > hi || childPrefix|mask < lo {
			continue
		}
		if !oracleScanNode(t, core, s.innerSlot(ref, j).Load(), level+1, childPrefix, lo, hi, fn, visited) {
			return false
		}
	}
	return true
}
