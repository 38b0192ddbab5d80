// Package colstore implements the block-wise column store that backs ERIS's
// scan-oriented data objects (Section 4). A Column is an append-only
// sequence of 64-bit values stored in fixed-size blocks, each carried by one
// node-local mem.Block allocation. Its data changes only by append and by
// partition transfer, never in place. Every block keeps a zone map — the
// min/max of its values — and their wrapping sum, updated as values are
// appended.
//
// A block holds its values as uint32 while all of them are below 2^32
// (narrow) and as uint64 otherwise (wide). The data picks the width: a
// block's first append decides it, and a value of 2^32 or more widens a
// narrow block once, for good. Narrow blocks halve the heap and the bytes
// a scan streams; the simulated machine still charges 8 bytes per value.
//
// Scans are block-at-a-time: a predicate implies an inclusive value
// interval (Predicate.Bounds), and each block's zone map decides, without
// touching the values, whether the block is skipped (no overlap), accepted
// whole (contained, matched/sum served from the block summary) or
// evaluated. Evaluated blocks run the interval kernel of their width
// (agg.go), in AVX2 assembly where the CPU has it; a narrow block's
// intervals run two per pass, in one AVX-512 kernel where the CPU has
// that. SharedScan and ScanFiltered share one block walk. Virtual time is
// charged per block touched: pruned and full-hit blocks cost one zone
// check, only evaluated blocks stream their bytes — so zone-map pruning
// shows up in the simulated fig-8-style cost numbers exactly as it would
// on the real machine.
//
// Isolation for scan sharing comes from an MVCC-lite snapshot: the column's
// value count at command time bounds what a scan may see, so appends never
// block or tear a running scan.
//
// For load balancing, whole blocks move between AEUs by reference when both
// live on the same node (the "link" mechanism) and are copied across nodes
// otherwise.
package colstore

import (
	"fmt"
	"math"
	"sync"

	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/topology"
)

// Config shapes a column.
type Config struct {
	// ChunkEntries is the number of values per block. Default 4096 (32 KiB
	// of 64-bit values, 16 KiB narrow): small enough that zone maps prune
	// at fine grain, large enough that the per-block overhead stays
	// invisible next to the value stream.
	ChunkEntries int
}

func (c Config) withDefaults() Config {
	if c.ChunkEntries == 0 {
		c.ChunkEntries = 4096
	}
	return c
}

// Alloc produces the backing allocation for a block; it decides the home
// node.
type Alloc func(size int64) mem.Block

// Free releases a block's allocation.
type Free func(b mem.Block)

// block is one fixed-size run of the column plus its incremental summary.
//
// Invariants (all maintained under the column mutex):
//   - The values are held in exactly one of data (wide) and narrow, once
//     the first append has picked the width; before that both are nil.
//     A narrow block holds only values below 2^32. An append that brings a
//     larger value widens the block once, and it stays wide.
//   - data[:used] or narrow[:used] are the block's values; blocks tile the
//     column in order.
//   - zmin/zmax bound every value in the block. They are its exact min and
//     max, except on the kept half of a split, where they stay a superset.
//   - sum is the exact wrapping sum of the values.
type block struct {
	data   []uint64
	narrow []uint32
	mem    mem.Block
	used   int
	zmin   uint64
	zmax   uint64
	sum    uint64
}

// add copies the head of values into the block's free slots, folding each
// into the zone map and sum, and returns how many fit; size is the block's
// capacity in values. The zone pass runs first, so its max picks the
// width: an empty block allocates narrow when every value fits in 32 bits,
// and a narrow block widens when one does not.
//
//eris:hotpath
func (b *block) add(values []uint64, size int) int {
	n := min(len(values), size-b.used)
	values = values[:n]
	for _, v := range values {
		if v < b.zmin {
			b.zmin = v
		}
		if v > b.zmax {
			b.zmax = v
		}
		b.sum += v
	}
	if b.data == nil && b.zmax <= math.MaxUint32 {
		if b.narrow == nil {
			b.narrow = make([]uint32, size) //eris:allowalloc block allocation amortized over size appends
		}
		dst := b.narrow[b.used : b.used+n]
		for i, v := range values {
			dst[i] = uint32(v)
		}
	} else {
		if b.data == nil {
			b.widen(size)
		}
		copy(b.data[b.used:], values)
	}
	b.used += n
	return n
}

// widen moves the block's values, if any, into a 64-bit buffer of size
// values.
//
//eris:hotpath
func (b *block) widen(size int) {
	b.data = make([]uint64, size) //eris:allowalloc block allocation amortized over size appends
	for i, v := range b.narrow[:b.used] {
		b.data[i] = uint64(v)
	}
	b.narrow = nil
}

// decodeRun is how many values of a narrow block values() decodes at once
// for the transfer paths.
const decodeRun = 256

// values returns the block's values from from up to to: a subslice of a
// wide block, or up to len(buf) of them decoded into buf from a narrow
// one. Callers loop until they have reached to.
func (b *block) values(from, to int, buf []uint64) []uint64 {
	if b.narrow == nil {
		return b.data[from:to]
	}
	out := buf[:min(to-from, len(buf))]
	for i, v := range b.narrow[from : from+len(out)] {
		out[i] = uint64(v)
	}
	return out
}

// Column is one partition of a columnar data object.
//
// A Column is owned by a single AEU in ERIS, which alone appends to it,
// scans it and splices blocks in and out of it for transfers. The mutex
// guards those splices against the balancer's concurrent Count/SizeTuples
// reads (and lets tests append and scan from many goroutines). Scans hold
// the read lock for the whole pass.
type Column struct {
	machine *numasim.Machine
	cfg     Config
	alloc   Alloc

	mu     sync.RWMutex
	blocks []block
	count  int64 // values present (the MVCC snapshot bound)
}

// New creates an empty column whose blocks are placed by alloc.
func New(machine *numasim.Machine, cfg Config, alloc Alloc) *Column {
	return &Column{machine: machine, cfg: cfg.withDefaults(), alloc: alloc}
}

// NewLocal creates a column allocating on one node's manager — the normal
// AEU-owned partition.
func NewLocal(machine *numasim.Machine, cfg Config, mgr *mem.Manager) *Column {
	return New(machine, cfg, mgr.Alloc)
}

// Count returns the number of values in the column.
//
//eris:hotpath
func (c *Column) Count() int64 { return c.Snapshot() }

// Snapshot returns the value count to use as an MVCC read bound.
//
//eris:hotpath
func (c *Column) Snapshot() int64 {
	c.mu.RLock() //eris:allowblock column RWMutex write-locked only for bounded transfer splices; read side never waits on I/O
	defer c.mu.RUnlock()
	return c.count
}

// newBlock allocates an empty block. Its value buffer waits for the first
// append (block.add), which picks the width; the node-local allocation is
// sized at the model's 8 bytes per value whatever the width.
//
//eris:hotpath
func (c *Column) newBlock() block {
	return block{
		mem:  c.alloc(int64(c.cfg.ChunkEntries) * 8),
		zmin: ^uint64(0),
	}
}

// tailBlock returns the block with append space, allocating one if needed.
// Caller holds the write lock.
//
//eris:hotpath
func (c *Column) tailBlock() *block {
	if len(c.blocks) == 0 || c.blocks[len(c.blocks)-1].used == c.cfg.ChunkEntries {
		c.blocks = append(c.blocks, c.newBlock())
	}
	return &c.blocks[len(c.blocks)-1]
}

// Append adds values to the column, charging core with sequential writes to
// the blocks' home nodes and folding each value into its block's zone map.
//
//eris:hotpath
func (c *Column) Append(core topology.CoreID, values []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(values) > 0 {
		b := c.tailBlock()
		n := b.add(values, c.cfg.ChunkEntries)
		c.machine.Stream(core, b.mem.Home, int64(n)*8)
		c.count += int64(n)
		values = values[n:]
	}
}

// Scan cost model: evaluated blocks pay bandwidth for their bytes plus
// per-byte predicate compute (~80 GB/s per core, low enough that scans stay
// memory-bound as in the paper); pruned and full-hit blocks pay only a
// zone-map check — a block-header read and two compares — per attached
// scan, never per tuple skipped.
const (
	scanComputeNSPerByte = 0.0125
	zoneCheckNSPerBlock  = 2.0
)

// Predicate is a push-down filter for scans.
type Predicate struct {
	Op      PredicateOp
	Operand uint64
	// High is the inclusive upper bound for Between.
	High uint64
}

// PredicateOp enumerates the supported comparison operators.
type PredicateOp uint8

// Supported predicate operators.
const (
	All PredicateOp = iota
	Less
	Greater
	Equal
	Between
)

// Matches evaluates the predicate for one value.
//
//eris:hotpath
func (p Predicate) Matches(v uint64) bool {
	switch p.Op {
	case All:
		return true
	case Less:
		return v < p.Operand
	case Greater:
		return v > p.Operand
	case Equal:
		return v == p.Operand
	case Between:
		return v >= p.Operand && v <= p.High
	}
	return false
}

// Bounds returns the inclusive value interval the predicate can match.
// ok is false when the predicate matches nothing (Less 0, Greater MaxUint64,
// inverted Between) — the empty interval that prunes every block.
//
//eris:hotpath
func (p Predicate) Bounds() (lo, hi uint64, ok bool) {
	switch p.Op {
	case All:
		return 0, ^uint64(0), true
	case Less:
		if p.Operand == 0 {
			return 0, 0, false
		}
		return 0, p.Operand - 1, true
	case Greater:
		if p.Operand == ^uint64(0) {
			return 0, 0, false
		}
		return p.Operand + 1, ^uint64(0), true
	case Equal:
		return p.Operand, p.Operand, true
	case Between:
		if p.Operand > p.High {
			return 0, 0, false
		}
		return p.Operand, p.High, true
	}
	return 0, 0, false
}

// ScanSpec is one scan's share of a shared pass: the inclusive value
// interval [Lo, Hi] that both the zone-map verdicts and the kernel test.
// The bounds are normally the predicate's Bounds(), but the multicast
// fan-out carries them on the scan command so every receiver prunes
// independently without re-deriving them; a receiver that narrows them
// narrows the scan. Lo > Hi is the empty interval: the scan matches
// nothing.
type ScanSpec struct {
	Lo, Hi uint64
}

// SpecOf derives a scan spec with the predicate's own bounds.
//
//eris:hotpath
func SpecOf(p Predicate) ScanSpec {
	lo, hi, ok := p.Bounds()
	if !ok {
		return ScanSpec{Lo: 1, Hi: 0}
	}
	return ScanSpec{Lo: lo, Hi: hi}
}

// ScanAgg accumulates one scan's aggregate over a shared pass.
type ScanAgg struct {
	Matched uint64
	Sum     uint64 // wrapping
}

// ScanStats counts block outcomes of a scan pass. The three verdict
// counts are (block, scan) decisions: a shared pass over b blocks serving s
// scans records b*s of them in total. BlocksStreamed counts the blocks the
// pass itself streamed, once however many scans evaluated them; against
// BlocksScanned it shows how much sharing the pass saved.
type ScanStats struct {
	BlocksScanned  int64 // blocks whose values were evaluated for a scan
	BlocksPruned   int64 // blocks skipped by the zone map (no overlap)
	BlocksFullHit  int64 // blocks accepted whole from the block summary
	BlocksStreamed int64 // blocks whose values the pass streamed
}

// ScanScratch is the reusable per-caller state of SharedScan: the pass's
// buffers, and the bytes the caller's last pass streamed. It grows to the
// largest scan count seen and then stays allocation-free; one scratch
// must not be shared by concurrent scans.
type ScanScratch struct {
	bufs     passBufs
	streamed int64
}

// passBufs are walk's buffers, each with room for one entry per spec.
type passBufs struct {
	verdicts []uint8    // each spec's verdict on the current block
	slots    []int      // each spec's interval: its index in ivals
	ivals    []interval // the pass's distinct intervals
}

// interval is one distinct spec interval of a pass, with its kernel
// result on the block it was last evaluated on.
type interval struct {
	lo, hi       uint64
	matched, sum uint64
	block        int // 1 + the index of that block; 0 before the first
}

// BytesStreamed returns the bytes of values the last SharedScan through
// this scratch streamed: 4 per value of a narrow block, 8 of a wide one,
// once per pass. The virtual charge stays at 8 bytes per value either way.
//
//eris:hotpath
func (s *ScanScratch) BytesStreamed() int64 { return s.streamed }

// Block verdicts of the zone-map check.
const (
	verdictEval uint8 = iota
	verdictSkip
	verdictFull
)

// verdict classifies a block against one scan's bounds. visible is how many
// of the block's slots the snapshot exposes; full acceptance requires the
// whole block to be visible, because the summary covers all of its values.
//
//eris:hotpath
func (b *block) verdict(s ScanSpec, visible int64) uint8 {
	if s.Lo > s.Hi || b.zmax < s.Lo || b.zmin > s.Hi {
		return verdictSkip
	}
	if visible == int64(b.used) && b.zmin >= s.Lo && b.zmax <= s.Hi {
		return verdictFull
	}
	return verdictEval
}

// SharedScan is the morsel-driven shared pass: it walks the blocks once and
// feeds every attached scan's aggregate. aggs[i] accumulates specs[i]'s
// result (the caller zeroes it); scratch holds the verdict buffer and is
// reused across calls.
//
//eris:hotpath
func (c *Column) SharedScan(core topology.CoreID, snapshot int64, specs []ScanSpec, aggs []ScanAgg, scratch *ScanScratch) ScanStats {
	if b := &scratch.bufs; cap(b.verdicts) < len(specs) {
		b.verdicts = make([]uint8, len(specs)) //eris:allowalloc amortized scan-scratch growth, reused across shared scans
		b.slots = make([]int, len(specs))      //eris:allowalloc amortized scan-scratch growth, reused across shared scans
		b.ivals = make([]interval, len(specs)) //eris:allowalloc amortized scan-scratch growth, reused across shared scans
	}
	stats, _, streamed := c.walk(core, snapshot, specs, aggs, &scratch.bufs)
	scratch.streamed = streamed
	return stats
}

// walk is the one block walk behind SharedScan and ScanFiltered. Per block,
// each scan's zone-map verdict is computed first; the block's values are
// streamed only if at least one scan must evaluate them. The distinct
// intervals that any scan evaluates then run once each over the block
// (evalBlock), two per pass over a narrow block's values, and their
// results fan out to every scan with that interval. bufs has room for one
// entry per spec. It returns the block outcomes, the positions walked and
// the bytes of values streamed.
//
// Virtual cost: one zone check per (block, scan); one byte stream per
// evaluated block plus one per-byte compute charge per run of consecutive
// evaluating scans with an identical interval, both at the model's 8 bytes
// per value, whatever the block's width and however the kernels pair the
// intervals, so the simulated figures do not depend on the data's range
// or the CPU. Pruned and full-hit blocks never touch their values.
//
//eris:hotpath
func (c *Column) walk(core topology.CoreID, snapshot int64, specs []ScanSpec, aggs []ScanAgg, bufs *passBufs) (stats ScanStats, seen, streamed int64) {
	bufs.prepare(specs)
	verdicts := bufs.verdicts
	c.mu.RLock() //eris:allowblock column RWMutex write-locked only for bounded transfer splices; read side never waits on I/O
	defer c.mu.RUnlock()
	for bi := range c.blocks {
		b := &c.blocks[bi]
		n := min(int64(b.used), snapshot-seen)
		if n <= 0 {
			break
		}
		c.machine.AdvanceNS(core, zoneCheckNSPerBlock*float64(len(specs)))
		evals := false
		for i := range specs {
			verdicts[i] = b.verdict(specs[i], n)
			evals = evals || verdicts[i] == verdictEval
		}
		if evals {
			// The block's values cross the memory system once per pass, no
			// matter how many scans evaluate them.
			c.machine.Stream(core, b.mem.Home, n*8)
			stats.BlocksStreamed++
			if b.narrow != nil {
				streamed += n * 4
			} else {
				streamed += n * 8
			}
			bufs.evalBlock(b, n, bi+1)
		}
		var prevLo, prevHi uint64
		havePrev := false
		for i := range specs {
			switch verdicts[i] {
			case verdictSkip:
				stats.BlocksPruned++
			case verdictFull:
				stats.BlocksFullHit++
				aggs[i].Matched += uint64(b.used)
				aggs[i].Sum += b.sum
			default:
				stats.BlocksScanned++
				if !havePrev || specs[i].Lo != prevLo || specs[i].Hi != prevHi {
					c.machine.AdvanceNS(core, float64(n*8)*scanComputeNSPerByte)
					prevLo, prevHi, havePrev = specs[i].Lo, specs[i].Hi, true
				}
				iv := &bufs.ivals[bufs.slots[i]]
				aggs[i].Matched += iv.matched
				aggs[i].Sum += iv.sum
			}
		}
		seen += n
	}
	return stats, seen, streamed
}

// prepare sizes verdicts and slots to a pass's specs and fills slots and
// ivals: each spec's interval gets the index of its first occurrence
// among the distinct ones.
//
//eris:hotpath
func (p *passBufs) prepare(specs []ScanSpec) {
	p.verdicts = p.verdicts[:len(specs)]
	p.slots = p.slots[:len(specs)]
	p.ivals = p.ivals[:0]
	for i, s := range specs {
		k := 0
		for k < len(p.ivals) && (p.ivals[k].lo != s.Lo || p.ivals[k].hi != s.Hi) {
			k++
		}
		if k == len(p.ivals) {
			p.ivals = p.ivals[:k+1]
			p.ivals[k] = interval{lo: s.Lo, hi: s.Hi}
		}
		p.slots[i] = k
	}
}

// evalBlock runs the kernel over the first n values of block b for every
// distinct interval that a spec evaluates and keeps each result in its
// interval. A narrow block's intervals run two per pass
// (aggInterval32x2), an odd one out paired with itself. stamp is 1 + the
// block's index.
//
//eris:hotpath
func (p *passBufs) evalBlock(b *block, n int64, stamp int) {
	pending := -1
	for i, v := range p.verdicts {
		k := p.slots[i]
		if v != verdictEval || p.ivals[k].block == stamp {
			continue
		}
		p.ivals[k].block = stamp
		if b.narrow == nil {
			iv := &p.ivals[k]
			iv.matched, iv.sum = aggInterval(b.data[:n], iv.lo, iv.hi)
			continue
		}
		if pending < 0 {
			pending = k
			continue
		}
		x, y := &p.ivals[pending], &p.ivals[k]
		x.matched, x.sum, y.matched, y.sum = aggInterval32x2(b.narrow[:n], b.zmax, x.lo, x.hi, y.lo, y.hi)
		pending = -1
	}
	if pending >= 0 {
		x := &p.ivals[pending]
		x.matched, x.sum, _, _ = aggInterval32x2(b.narrow[:n], b.zmax, x.lo, x.hi, x.lo, x.hi)
	}
}

// ScanResult aggregates a filtered scan.
type ScanResult struct {
	Scanned int64 // positions visible at the snapshot (pruned or not)
	Matched int64
	Sum     uint64 // sum of matching values, wrapping

	// Block outcomes of the pass (see ScanStats).
	BlocksScanned int64
	BlocksPruned  int64
	BlocksFullHit int64
	BytesStreamed int64 // bytes of values the pass streamed (ScanScratch.BytesStreamed)
}

// ScanFiltered runs one predicate over the column with zone-map pruning,
// aggregating matched count and sum; this is the storage operation behind
// the paper's scan data command. It is a one-scan pass over SharedScan's
// block walk that needs no scratch, so it is safe to call concurrently
// from many readers.
func (c *Column) ScanFiltered(core topology.CoreID, snapshot int64, p Predicate) ScanResult {
	specs := [1]ScanSpec{SpecOf(p)}
	var aggs [1]ScanAgg
	var verdicts [1]uint8
	var slots [1]int
	var ivals [1]interval
	bufs := passBufs{verdicts: verdicts[:], slots: slots[:], ivals: ivals[:]}
	stats, seen, streamed := c.walk(core, snapshot, specs[:], aggs[:], &bufs)
	return ScanResult{
		Scanned: seen, Matched: int64(aggs[0].Matched), Sum: aggs[0].Sum,
		BlocksScanned: stats.BlocksScanned, BlocksPruned: stats.BlocksPruned, BlocksFullHit: stats.BlocksFullHit,
		BytesStreamed: streamed,
	}
}

// Detached is a run of blocks detached from a column for a partition
// transfer.
type Detached struct {
	blocks []block
	count  int64 // values
}

// Count returns the number of values in the detached run.
//
//eris:hotpath
func (d *Detached) Count() int64 { return d.count }

// DetachTail removes the last n values from the column. Whole blocks move
// by reference with their zone maps and their width; a partially covered
// block is split by copying its tail into a fresh block (charged as a
// local stream) whose summary and width are built from the copied values.
// The kept block's sum stays exact by subtraction; its zone map stays a
// superset.
func (c *Column) DetachTail(core topology.CoreID, n int64) *Detached {
	c.mu.Lock() //eris:allowblock bounded pointer-splice critical section on the transfer path; no I/O under the lock
	defer c.mu.Unlock()
	n = min(n, c.count)
	d := &Detached{count: n}
	c.count -= n
	for n > 0 {
		last := &c.blocks[len(c.blocks)-1]
		if int64(last.used) <= n {
			d.blocks = append(d.blocks, *last)
			n -= int64(last.used)
			c.blocks = c.blocks[:len(c.blocks)-1]
			continue
		}
		keep := last.used - int(n)
		split := c.newBlock()
		var buf [decodeRun]uint64
		for from := keep; from < last.used; {
			from += split.add(last.values(from, last.used, buf[:]), c.cfg.ChunkEntries)
		}
		c.machine.Stream(core, last.mem.Home, n*8)
		c.machine.Stream(core, split.mem.Home, n*8)
		last.used = keep
		last.sum -= split.sum
		d.blocks = append(d.blocks, split)
		n = 0
	}
	// Detached blocks come off the tail newest-first; restore order.
	for i, j := 0, len(d.blocks)-1; i < j; i, j = i+1, j-1 {
		d.blocks[i], d.blocks[j] = d.blocks[j], d.blocks[i]
	}
	return d
}

// LinkDetached appends a detached run by reference; each block keeps its
// width. Every block must be homed on node (the caller's local node):
// linking is only legal within one memory-management domain.
func (c *Column) LinkDetached(core topology.CoreID, node topology.NodeID, d *Detached) error {
	for i := range d.blocks {
		if d.blocks[i].mem.Home != node {
			return fmt.Errorf("colstore: link of block homed on node %d into node %d; use CopyDetached",
				d.blocks[i].mem.Home, node)
		}
	}
	c.mu.Lock() //eris:allowblock bounded pointer-splice critical section on the transfer path; no I/O under the lock
	defer c.mu.Unlock()
	c.blocks = append(c.blocks, d.blocks...)
	c.count += d.count
	d.blocks, d.count = nil, 0
	return nil
}

// CopyDetached appends a detached run by value: the target AEU streams the
// source blocks' values into freshly allocated local blocks (the cross-node
// "copy" transfer), then releases the source allocations.
func (c *Column) CopyDetached(core topology.CoreID, d *Detached, releaseSrc Free) {
	for i := range d.blocks {
		c.appendCopied(core, &d.blocks[i])
		releaseSrc(d.blocks[i].mem)
	}
	d.blocks, d.count = nil, 0
}

// appendCopied streams one source block's values into the column.
func (c *Column) appendCopied(core topology.CoreID, src *block) {
	c.mu.Lock() //eris:allowblock bounded per-block copy on the transfer path; no I/O under the lock
	defer c.mu.Unlock()
	var home topology.NodeID
	var buf [decodeRun]uint64
	for from := 0; from < src.used; {
		vals := src.values(from, src.used, buf[:])
		from += len(vals)
		for len(vals) > 0 {
			b := c.tailBlock()
			n := b.add(vals, c.cfg.ChunkEntries)
			c.count += int64(n)
			home, vals = b.mem.Home, vals[n:]
		}
	}
	// The copy loop reads the remote source and writes locally; the slower
	// leg dominates, which StreamBetween models.
	c.machine.StreamBetween(core, src.mem.Home, home, int64(src.used)*8)
}

// Values copies the visible values into a slice, charging their stream:
// the checkpoint image of a column and test support, not a scan path.
func (c *Column) Values(core topology.CoreID, snapshot int64) []uint64 {
	out := make([]uint64, 0, snapshot)
	c.mu.RLock() //eris:allowblock column RWMutex write-locked only for bounded transfer splices; read side never waits on I/O
	defer c.mu.RUnlock()
	for bi := range c.blocks {
		b := &c.blocks[bi]
		n := min(int64(b.used), snapshot-int64(len(out)))
		if n <= 0 {
			break
		}
		c.machine.Stream(core, b.mem.Home, n*8)
		if b.narrow == nil {
			out = append(out, b.data[:n]...)
			continue
		}
		for _, v := range b.narrow[:n] {
			out = append(out, uint64(v))
		}
	}
	return out
}
