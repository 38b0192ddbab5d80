// Package routing implements the NUMA-optimized high-throughput data
// command routing layer of ERIS (Section 3.2, Figure 4).
//
// Partition tables — a CSB+-tree range table for attribute-partitioned
// objects, a bitmap table for physically partitioned (scan-only) objects —
// map a data command to its responsible AEUs. They are small, rarely
// written (only by the load balancer) and frequently read, so they are
// published via atomic pointer swaps and read latch-free; as in the paper,
// reads are assumed cache-resident and charge only CPU time.
//
// Each AEU owns an Outbox: one private unicast buffer per peer AEU, a
// multicast table, and per-peer multicast reference buffers. Commands are
// appended locally (no synchronization, no remote traffic) and whole
// buffers are copied to the target's Inbox when full or at the end of the
// AEU loop, so the high remote latency is paid once per buffer instead of
// once per command.
//
// Each AEU owns an Inbox of two equal buffers guarded by the paper's
// 64-bit latch-free descriptor (1 active bit, 32 offset bits, 31 writer-
// count bits, updated with CAS), an adaptation of the LLAMA multi-buffer:
// any number of AEUs append to the writable buffer in parallel while the
// owner processes the other one.
package routing

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"eris/internal/csbtree"
)

// ObjectID identifies a data object (table or index) within the engine.
type ObjectID uint32

// TableKind distinguishes the two partition table variants.
type TableKind uint8

// Partition table kinds.
const (
	// RangePartitioned objects are split by key ranges (order-preserving).
	RangePartitioned TableKind = iota
	// SizePartitioned objects have no partitioning attribute; the bitmap
	// table only records which AEUs hold a partition.
	SizePartitioned
)

// RangeTable maps key ranges to owning AEUs; readers are latch-free.
type RangeTable struct {
	tree atomic.Pointer[csbtree.Tree]
}

// NewRangeTable builds a range table from entries (see csbtree.Build).
func NewRangeTable(entries []csbtree.Entry) (*RangeTable, error) {
	t, err := csbtree.Build(entries)
	if err != nil {
		return nil, err
	}
	rt := &RangeTable{}
	rt.tree.Store(t)
	return rt, nil
}

// Owner returns the AEU responsible for key.
//
//eris:hotpath
func (rt *RangeTable) Owner(key uint64) uint32 {
	return rt.tree.Load().Lookup(key)
}

// OwnersSorted resolves the owner of every key of an ascending-sorted
// batch in one pass over the partition table (one descent plus a linear
// merge); owners must have at least len(keys) elements.
//
//eris:hotpath
func (rt *RangeTable) OwnersSorted(keys []uint64, owners []uint32) {
	rt.tree.Load().LookupBatchSorted(keys, owners)
}

// Entries returns the current partitioning (for monitoring and the
// balancer).
func (rt *RangeTable) Entries() []csbtree.Entry { return rt.tree.Load().Entries() }

// Update publishes a new partitioning; concurrent readers keep using the
// old table until the swap and never block.
func (rt *RangeTable) Update(entries []csbtree.Entry) error {
	t, err := csbtree.Build(entries)
	if err != nil {
		return err
	}
	rt.tree.Store(t)
	return nil
}

// BitmapTable records which AEUs hold a partition of a size-partitioned
// object. The holder set is fixed when the object is registered, so the
// bitmap is immutable and read without synchronization.
type BitmapTable struct {
	words []uint64
}

// NewBitmapTable builds a table with the given AEUs set.
func NewBitmapTable(aeus []uint32, numAEUs int) *BitmapTable {
	bt := &BitmapTable{words: make([]uint64, (numAEUs+63)/64)}
	for _, a := range aeus {
		bt.words[a/64] |= 1 << (a % 64)
	}
	return bt
}

// Holders appends all holding AEUs to dst in ascending order.
func (bt *BitmapTable) Holders(dst []uint32) []uint32 {
	for w, m := range bt.words {
		for ; m != 0; m &= m - 1 {
			dst = append(dst, uint32(w*64+bits.TrailingZeros64(m)))
		}
	}
	return dst
}

// Count returns the number of holders.
func (bt *BitmapTable) Count() int {
	n := 0
	for _, m := range bt.words {
		n += bits.OnesCount64(m)
	}
	return n
}

// object bundles one data object's routing state.
type object struct {
	kind   TableKind
	ranged *RangeTable
	bitmap *BitmapTable
}

func (o *object) String() string {
	if o.kind == RangePartitioned {
		return fmt.Sprintf("range-partitioned (%d ranges)", o.ranged.tree.Load().Len())
	}
	return fmt.Sprintf("size-partitioned (%d holders)", o.bitmap.Count())
}
