package routing

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/faults"
	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/prefixtree"
	"eris/internal/topology"
)

// Frame kinds inside routed buffers.
const (
	kindCmd byte = 1 // inline encoded command follows
	kindRef byte = 2 // multicast reference: src AEU (4), slot (4), size (4)
)

const refRecordBytes = 1 + 4 + 4 + 4

// Virtual CPU costs of the routing layer, in nanoseconds. The partition
// tables are cache-resident, so a table lookup charges no memory access.
const (
	routeNSPerKey      = 3 // one partition-table lookup
	decodeNSPerCommand = 2 // decoding one routed command
)

// multicastSlots is the capacity of each AEU's multicast table.
const multicastSlots = 1024

// mcastEntry is one slot of an AEU's multicast table: the command encoded
// once, pulled by every referenced target.
type mcastEntry struct {
	data []byte
	refs atomic.Int32
}

// Outbox is the private per-AEU routing state: one unicast buffer and one
// multicast reference buffer per peer AEU, plus the multicast table. All
// buffers live in the owning AEU's local memory and need no concurrency
// control (step 2 of Figure 4); only flushing touches remote memory.
type Outbox struct {
	r    *Router
	self uint32
	node topology.NodeID

	uni     [][]byte // per target; lazily allocated
	refs    [][]byte // per target multicast reference buffers
	touched []uint32 // targets queued for the next Flush, in first-touch order
	queued  []bool   // target is in touched (cleared only by Flush)
	dirty   []bool   // target has unflushed data

	mcast     []mcastEntry
	mcastNext int
	mcastAddr mem.Block

	// groupKeys/groupKVs are per-target scratch for splitting batches;
	// targets/owners/sortKeys/sortKVs/holderScratch are the remaining
	// route-split scratch, all reused across calls (the outbox is
	// single-goroutine by construction).
	groupKeys     [][]uint64
	groupKVs      [][]prefixtree.KV
	targets       []uint32
	owners        []uint32
	sortKeys      []uint64
	sortKVs       []prefixtree.KV
	holderScratch []uint32

	// maxLookupKeys/maxUpsertKVs cap how many keys/KVs one routed command
	// may carry so its framed encoding never exceeds OutBufBytes (chunked
	// at route time instead of hitting the inbox oversized-divert path).
	maxLookupKeys int
	maxUpsertKVs  int

	// Counters, registered on the engine's metrics registry under
	// routing.outbox.<aeu>.*. Only the owning AEU writes them.
	routedCmds  *metrics.Counter
	routedKeys  *metrics.Counter
	flushes     *metrics.Counter
	flushedByte *metrics.Counter
	mcasts      *metrics.Counter
}

func newOutbox(r *Router, self uint32, node topology.NodeID) *Outbox {
	n := r.numAEUs
	prefix := fmt.Sprintf("routing.outbox.%d.", self)
	return &Outbox{
		r:             r,
		self:          self,
		node:          node,
		uni:           make([][]byte, n),
		refs:          make([][]byte, n),
		queued:        make([]bool, n),
		dirty:         make([]bool, n),
		mcast:         make([]mcastEntry, multicastSlots),
		mcastAddr:     r.mems.Node(node).Alloc(multicastSlots * 64),
		groupKeys:     make([][]uint64, n),
		groupKVs:      make([][]prefixtree.KV, n),
		maxLookupKeys: command.MaxLookupKeys(r.cfg.OutBufBytes),
		maxUpsertKVs:  command.MaxUpsertKVs(r.cfg.OutBufBytes),
		routedCmds:    r.metrics.Counter(prefix + "routed_cmds"),
		routedKeys:    r.metrics.Counter(prefix + "routed_keys"),
		flushes:       r.metrics.Counter(prefix + "flushes"),
		flushedByte:   r.metrics.Counter(prefix + "flushed_bytes"),
		mcasts:        r.metrics.Counter(prefix + "multicasts"),
	}
}

// core returns the core this outbox's AEU is pinned to.
//
//eris:hotpath
func (o *Outbox) core() topology.CoreID { return topology.CoreID(o.self) }

// markTouched records that target has pending data. The touched list is
// gated on queued, not dirty: FlushTarget clears dirty but leaves the
// target queued, so re-touching a target flushed mid-iteration cannot
// append a duplicate (only Flush dequeues).
//
//eris:hotpath
func (o *Outbox) markTouched(to uint32) {
	o.dirty[to] = true
	if !o.queued[to] {
		o.queued[to] = true
		o.touched = append(o.touched, to)
	}
}

// appendCmd encodes cmd into the unicast buffer of target, flushing first
// if the buffer would overflow. Appends are local memory writes.
//
//eris:hotpath
func (o *Outbox) appendCmd(to uint32, cmd *command.Command) {
	need := 1 + cmd.EncodedSize()
	if buf := o.uni[to]; len(buf)+need > o.r.cfg.OutBufBytes && len(buf) > 0 {
		o.FlushTarget(to)
	}
	if o.uni[to] == nil {
		o.uni[to] = make([]byte, 0, o.r.cfg.OutBufBytes) //eris:allowalloc per-target buffer allocated once at first use, then reused across flushes
	}
	o.uni[to] = append(o.uni[to], kindCmd)
	o.uni[to] = cmd.AppendEncode(o.uni[to])
	o.markTouched(to)
	o.routedCmds.Inc()
	// Local buffer write: charged as a local stream so that routing's local
	// traffic shows up in the memory-controller counters.
	o.r.machine.Stream(o.core(), o.node, int64(need))
}

// Send routes a fully formed command to one explicit target AEU.
//
//eris:hotpath
func (o *Outbox) Send(to uint32, cmd *command.Command) {
	cmd.Source = o.self
	o.appendCmd(to, cmd)
}

// sortedRouteMinKeys is the batch size from which the route-split sorts
// the batch and resolves owners with one partition-table walk plus a
// linear merge; below it, per-key descents are cheaper than the sort.
const sortedRouteMinKeys = 16

// RouteLookup routes a lookup batch; see RouteBatch.
//
//eris:hotpath
func (o *Outbox) RouteLookup(obj ObjectID, keys []uint64, replyTo int32, tag, deadline uint64) int {
	return o.RouteBatch(command.OpLookup, obj, keys, nil, replyTo, tag, deadline)
}

// RouteUpsert routes an upsert batch; see RouteBatch.
//
//eris:hotpath
func (o *Outbox) RouteUpsert(obj ObjectID, kvs []prefixtree.KV, replyTo int32, tag, deadline uint64) int {
	return o.RouteBatch(command.OpUpsert, obj, nil, kvs, replyTo, tag, deadline)
}

// RouteBatch splits a point-operation batch — keys for a lookup or delete,
// kvs for an upsert — by owner and routes per-owner commands, chunked so no
// encoded command exceeds the outgoing buffer capacity. The request
// deadline (absolute unix nanoseconds, 0 = none) is stamped on every routed
// command, so a forwarded batch keeps its issuer's time budget. It returns
// the number of commands emitted. Large batches are sorted first and
// resolved against the partition table in one ordered merge; the sort is
// stable, so duplicate upsert keys keep their last-write-wins order. The
// virtual cost charged is routeNSPerKey per key either way, so simulated
// results do not depend on the resolution strategy.
//
//eris:hotpath
func (o *Outbox) RouteBatch(op command.Op, obj ObjectID, keys []uint64, kvs []prefixtree.KV, replyTo int32, tag, deadline uint64) int {
	upsert := op == command.OpUpsert
	n := len(keys)
	if upsert {
		n = len(kvs)
	}
	o.r.machine.AdvanceNS(o.core(), routeNSPerKey*float64(n))
	o.routedKeys.Add(int64(n))
	if n == 0 {
		return 0
	}

	sorted := n >= sortedRouteMinKeys
	if upsert {
		if sorted {
			o.sortKVs = append(o.sortKVs[:0], kvs...)
			slices.SortStableFunc(o.sortKVs, compareKeys)
			kvs = o.sortKVs
		}
		o.sortKeys = o.sortKeys[:0]
		for _, kv := range kvs {
			o.sortKeys = append(o.sortKeys, kv.Key)
		}
		keys = o.sortKeys
	} else if sorted {
		o.sortKeys = append(o.sortKeys[:0], keys...)
		slices.Sort(o.sortKeys)
		keys = o.sortKeys
	}
	owners := o.resolveOwners(o.r.object(obj).ranged, keys)

	o.targets = o.targets[:0]
	for i, to := range owners {
		if len(o.groupKeys[to])+len(o.groupKVs[to]) == 0 {
			o.targets = append(o.targets, to)
		}
		if upsert {
			o.groupKVs[to] = append(o.groupKVs[to], kvs[i])
		} else {
			o.groupKeys[to] = append(o.groupKeys[to], keys[i])
		}
	}
	chunk := o.maxLookupKeys
	if upsert {
		chunk = o.maxUpsertKVs
	}
	emitted := 0
	for _, to := range o.targets {
		gk, gkv := o.groupKeys[to], o.groupKVs[to]
		for lo, size := 0, len(gk)+len(gkv); lo < size; lo += chunk {
			hi := min(lo+chunk, size)
			cmd := command.Command{
				Op: op, Object: uint32(obj), Source: o.self,
				ReplyTo: replyTo, Tag: tag, Deadline: deadline,
			}
			if upsert {
				cmd.KVs = gkv[lo:hi]
			} else {
				cmd.Keys = gk[lo:hi]
			}
			o.appendCmd(to, &cmd)
			emitted++
		}
		o.groupKeys[to], o.groupKVs[to] = gk[:0], gkv[:0]
	}
	return emitted
}

// compareKeys orders KVs by key for the stable sorted-route split.
//
//eris:hotpath
func compareKeys(a, b prefixtree.KV) int { return cmp.Compare(a.Key, b.Key) }

// resolveOwners fills the owner scratch for routed keys, choosing between
// per-key descents and the sorted one-pass merge. routed must be sorted
// ascending when its length is at least sortedRouteMinKeys.
//
//eris:hotpath
func (o *Outbox) resolveOwners(table *RangeTable, routed []uint64) []uint32 {
	if cap(o.owners) < len(routed) {
		o.owners = make([]uint32, len(routed)) //eris:allowalloc amortized owner-scratch growth, reused across batches
	}
	owners := o.owners[:len(routed)]
	if len(routed) >= sortedRouteMinKeys {
		table.OwnersSorted(routed, owners)
	} else {
		for i, k := range routed {
			owners[i] = table.Owner(k)
		}
	}
	return owners
}

// RouteScan multicasts a full scan of a size-partitioned object to every
// holder. The multicast carries the predicate's value bounds (see
// colstore.SpecOf) as Keys = [lo, hi], so each receiving AEU prunes its
// blocks with its zone maps independently. It returns the number of
// targets.
func (o *Outbox) RouteScan(obj ObjectID, pred colstore.Predicate, replyTo int32, tag uint64) int {
	o.holderScratch = o.r.object(obj).bitmap.Holders(o.holderScratch[:0])
	spec := colstore.SpecOf(pred)
	o.sortKeys = append(o.sortKeys[:0], spec.Lo, spec.Hi)
	cmd := command.Command{
		Op: command.OpScan, Object: uint32(obj), Source: o.self,
		ReplyTo: replyTo, Tag: tag, Pred: pred, Keys: o.sortKeys,
	}
	o.multicast(&cmd, o.holderScratch)
	return len(o.holderScratch)
}

// multicast stores the command once in the multicast table and appends a
// reference record to each target's reference buffer (step 2, multicast
// path, of Figure 4). When every slot is still referenced, the command is
// encoded inline into each target's unicast buffer instead.
//
//eris:hotpath
func (o *Outbox) multicast(cmd *command.Command, targets []uint32) {
	if len(targets) == 0 {
		return
	}
	m := o.r.machine
	m.AdvanceNS(o.core(), routeNSPerKey*float64(len(targets)))
	slot := o.allocMcastSlot()
	if slot < 0 {
		for _, to := range targets {
			o.appendCmd(to, cmd)
		}
		return
	}
	e := &o.mcast[slot]
	e.data = cmd.AppendEncode(e.data[:0])
	e.refs.Store(int32(len(targets)))
	o.mcasts.Inc()
	o.routedCmds.Inc()
	m.Stream(o.core(), o.node, int64(len(e.data)))

	var rec [refRecordBytes]byte
	rec[0] = kindRef
	binary.LittleEndian.PutUint32(rec[1:], o.self)
	binary.LittleEndian.PutUint32(rec[5:], uint32(slot))
	binary.LittleEndian.PutUint32(rec[9:], uint32(len(e.data)))
	for _, to := range targets {
		if len(o.refs[to])+refRecordBytes > o.r.cfg.OutBufBytes && len(o.refs[to]) > 0 {
			o.FlushTarget(to)
		}
		o.refs[to] = append(o.refs[to], rec[:]...)
		o.markTouched(to)
		m.Stream(o.core(), o.node, refRecordBytes)
	}
}

// allocMcastSlot finds a slot whose previous references are all consumed,
// or returns -1 when every slot is still referenced.
//
//eris:hotpath
func (o *Outbox) allocMcastSlot() int {
	for i := range o.mcast {
		slot := (o.mcastNext + i) % len(o.mcast)
		if o.mcast[slot].refs.Load() == 0 {
			o.mcastNext = (slot + 1) % len(o.mcast)
			return slot
		}
	}
	return -1
}

// FlushTarget copies the pending buffers for one target into its inbox,
// paying one remote round trip plus the transfer (step 3 of Figure 4).
//
//eris:hotpath
func (o *Outbox) FlushTarget(to uint32) {
	uni, refs := o.uni[to], o.refs[to]
	total := len(uni) + len(refs)
	if total == 0 {
		return
	}
	m := o.r.machine
	targetNode := o.r.nodeOfAEU(to)
	// One descriptor CAS round trip per flush (overlapped across targets
	// up to the configured depth), then the batched copy.
	m.AdvanceNS(o.core(), m.RemoteLatencyNS(o.core(), targetNode)/float64(o.r.cfg.FlushOverlap))
	m.Stream(o.core(), targetNode, int64(total))

	inbox := o.r.inboxes[to]
	inbox.Append(uni)
	inbox.Append(refs)
	o.uni[to], o.refs[to] = uni[:0], refs[:0]
	o.flushes.Inc()
	o.flushedByte.Add(int64(total))
	o.dirty[to] = false
}

// Flush sends every pending buffer (the AEU calls this when its loop starts
// over) and dequeues every touched target.
//
//eris:hotpath
func (o *Outbox) Flush() {
	if len(o.touched) == 0 {
		return
	}
	for _, to := range o.touched {
		if o.dirty[to] {
			o.FlushTarget(to)
		}
		o.queued[to] = false
	}
	o.touched = o.touched[:0]
}

// OutboxStats is a snapshot of per-AEU routing counters.
type OutboxStats struct {
	RoutedCommands int64
	RoutedKeys     int64
	Multicasts     int64
	Flushes        int64
	FlushedBytes   int64
}

// Stats returns a snapshot of the outbox counters. The same values are
// available through the engine's metrics registry as routing.outbox.<aeu>.*.
func (o *Outbox) Stats() OutboxStats {
	return OutboxStats{
		RoutedCommands: o.routedCmds.Load(),
		RoutedKeys:     o.routedKeys.Load(),
		Multicasts:     o.mcasts.Load(),
		Flushes:        o.flushes.Load(),
		FlushedBytes:   o.flushedByte.Load(),
	}
}

// Inject frames and appends a command directly to an AEU's inbox, bypassing
// the outbox pre-buffering. The engine's client API and the load balancer
// use it: both are control-plane paths without a core of their own, so no
// virtual time is charged. The inbox protocol makes this safe from any
// goroutine. The frame is encoded into a pooled buffer, which Append
// copies; frames larger than injectPoolMax (bulk loads) are not kept.
func (r *Router) Inject(aeu uint32, cmd *command.Command) {
	bp := injectBufs.Get().(*[]byte)
	buf := append((*bp)[:0], kindCmd)
	buf = cmd.AppendEncode(buf)
	r.inboxes[aeu].Append(buf)
	if cap(buf) <= injectPoolMax {
		*bp = buf
		injectBufs.Put(bp)
	}
}

// injectBufs recycles Inject's frame buffers; injectPoolMax bounds the
// buffers it keeps.
var injectBufs = sync.Pool{New: func() any { return new([]byte) }}

const injectPoolMax = 16 << 10

// Drain swaps the AEU's inbox and decodes every routed command, resolving
// multicast references by pulling the command from the source AEU's
// multicast table (charged as a remote read). fn is called for each
// command. It returns the number of commands delivered.
//
// Corruption is fail-soft: a frame that does not decode, or an unknown
// frame kind, ends the drain of this payload — frame boundaries live
// inside the payload, so nothing past the corruption can be trusted — and
// the dropped remainder is counted (routing.drain.*). A multicast
// reference whose record is intact but whose entry does not decode is
// skipped record-by-record, releasing the reference so the source can
// recycle the slot.
//
// Commands are decoded zero-copy: Keys and KVs may alias the drained inbox
// buffer (or the AEU's decoder scratch), so they are valid only until fn
// returns — more precisely, until the next command is decoded or the next
// Drain swaps the inbox. Callers that retain a command past fn must
// Clone it (see command.Decoder).
//
//eris:hotpath
func (r *Router) Drain(aeu uint32, fn func(command.Command)) int {
	in := r.inboxes[aeu]
	core := topology.CoreID(aeu)
	node := r.nodeOfAEU(aeu)
	payload := in.Swap()
	if len(payload) == 0 {
		return 0
	}
	m := r.machine
	// The owner reads its processing buffer sequentially from local memory.
	m.Stream(core, node, int64(len(payload)))

	if len(payload) > 1 && r.faults.Should(faults.CorruptFrame) {
		// Injected corruption: clobber the first byte after the frame kind
		// (the command op, or a multicast source id), so the regular
		// corruption handling below runs against a genuinely broken stream.
		payload[0+1] ^= 0xA5
	}

	dec := &r.drainDecs[aeu]
	n := 0
	for off := 0; off < len(payload); {
		switch payload[off] {
		case kindCmd:
			var cmd command.Command
			used, err := dec.DecodeInto(&cmd, payload[off+1:])
			if err != nil {
				r.corruptFrames.Inc()
				r.droppedBytes.Add(int64(len(payload) - off))
				return n
			}
			m.AdvanceNS(core, decodeNSPerCommand)
			fn(cmd)
			off += 1 + used
			n++
		case kindRef:
			if off+refRecordBytes > len(payload) {
				r.corruptFrames.Inc()
				r.droppedBytes.Add(int64(len(payload) - off))
				return n
			}
			src := binary.LittleEndian.Uint32(payload[off+1:])
			slot := binary.LittleEndian.Uint32(payload[off+5:])
			size := binary.LittleEndian.Uint32(payload[off+9:])
			if int(src) >= len(r.outboxes) || int(slot) >= len(r.outboxes[src].mcast) {
				// Reference into nowhere: the record itself is corrupt. Its
				// length is fixed, so the stream resynchronizes at the next
				// record; there is no entry reference to release.
				r.corruptFrames.Inc()
				r.droppedBytes.Add(refRecordBytes)
				off += refRecordBytes
				continue
			}
			srcBox := r.outboxes[src]
			e := &srcBox.mcast[slot]
			// Pull the command body from the source AEU's local memory.
			m.Read(core, srcBox.node, srcBox.mcastAddr.Addr+uint64(slot*64), int64(size), 2)
			var cmd command.Command
			if _, err := dec.DecodeInto(&cmd, e.data); err != nil {
				r.corruptFrames.Inc()
				r.droppedBytes.Add(int64(size))
				e.refs.Add(-1)
				off += refRecordBytes
				continue
			}
			m.AdvanceNS(core, decodeNSPerCommand)
			fn(cmd)
			// The reference is released only after fn returns: the decoded
			// views may alias the multicast entry, and the source recycles
			// the slot once the count hits zero.
			e.refs.Add(-1)
			off += refRecordBytes
			n++
		default:
			r.unknownFrames.Inc()
			r.droppedBytes.Add(int64(len(payload) - off))
			return n
		}
	}
	return n
}
