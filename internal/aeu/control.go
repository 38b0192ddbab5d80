package aeu

import (
	"sort"

	"eris/internal/command"
	"eris/internal/durable"
	"eris/internal/faults"
	"eris/internal/routing"
)

// handleBalance applies a balancing command: adopt the new partition
// bounds, then request the missing data from the source AEUs (Section
// 3.3.2). The routing tables were already updated by the balancer; until
// the fetched data arrives, commands for the granted ranges are deferred.
//
// A malformed or misdirected balance command is counted and dropped, never
// fatal: the balancer's ack wait times out and the next sampling window
// re-evaluates the imbalance against whatever state survived.
func (a *AEU) handleBalance(c command.Command) {
	b := c.Balance
	if b == nil {
		a.ctrlErrors.Inc()
		return
	}
	obj := routing.ObjectID(c.Object)
	p := a.parts[obj]
	if p == nil {
		// Nothing to rebalance here; ack so the cycle can still complete.
		a.ctrlErrors.Inc()
		a.ackEpoch(obj, b.Epoch)
		return
	}
	a.abandonStaleEpochs(b.Epoch)
	dbg("aeu%d obj%d handleBalance epoch=%d new=[%d,%d] fetches=%d", a.ID, c.Object, b.Epoch, b.NewLo, b.NewHi, len(b.Fetches))
	if p.Kind == routing.RangePartitioned {
		p.prevLo, p.prevHi, p.prevEpoch = p.Lo, p.Hi, b.Epoch
		p.prevHoles = p.prevHoles[:0]
		for _, r := range a.awaited {
			if r.obj == obj && r.epoch == 0 {
				p.prevHoles = append(p.prevHoles, keyRange{lo: r.lo, hi: r.hi})
			}
		}
		a.noteUncoveredGrant(p, b.NewLo, b.NewHi, b.Fetches)
		p.Lo, p.Hi = b.NewLo, b.NewHi
		p.reconArmed = false
		// Awaited ranges the new bounds no longer cover are foreign now:
		// their keys forward to the new owner, whose own awaited entries
		// repair them. Probing for them here would steal the new owner's
		// live data.
		a.pruneAwaited(obj, b.NewLo, b.NewHi)
	}
	if len(b.Fetches) == 0 {
		a.ackEpoch(obj, b.Epoch)
		return
	}
	a.pendingFetches[b.Epoch] += len(b.Fetches)
	for _, f := range b.Fetches {
		if p.Kind == routing.RangePartitioned {
			a.awaited = append(a.awaited, awaitedRange{
				obj: obj, lo: f.Lo, hi: f.Hi, epoch: b.Epoch, from: f.From,
			})
		}
		fetch := f
		cmd := command.Command{
			Op: command.OpFetch, Object: c.Object, Source: a.ID,
			ReplyTo: command.NoReply, Tag: b.Epoch, Fetch: &fetch,
		}
		a.Outbox().Send(f.From, &cmd)
	}
}

// noteUncoveredGrant opens a repair for every part of the bounds [newLo,
// newHi] about to be installed that this AEU has no data for and is not
// about to get: not inside the current bounds, not in the fetch list that
// came with them (nil when reconciliation adopts them from the routing
// table), not already awaited. The balancer diffs against the routing
// table, so its fetch list tiles the growth exactly when the previous
// cycle's OpBalance arrived here. When that command was lost the table is
// ahead of p.Lo/p.Hi and the difference would otherwise be adopted without
// data, served as misses, and accept writes that collide with the tuples —
// still in the previous owner's tree — when a later cycle re-transfers the
// range. Must run before p.Lo/p.Hi are overwritten.
func (a *AEU) noteUncoveredGrant(p *Partition, newLo, newHi uint64, fetches []command.Fetch) {
	covered := make([]keyRange, 0, 1+len(fetches)+len(a.awaited))
	if p.Lo <= p.Hi {
		covered = append(covered, keyRange{lo: p.Lo, hi: p.Hi})
	}
	for _, f := range fetches {
		covered = append(covered, keyRange{lo: f.Lo, hi: f.Hi})
	}
	for _, r := range a.awaited {
		if r.obj == p.Object {
			covered = append(covered, keyRange{lo: r.lo, hi: r.hi})
		}
	}
	sort.Slice(covered, func(i, j int) bool { return covered[i].lo < covered[j].lo })
	gap := func(lo, hi uint64) {
		// Ordered ownership: what lies below the old bounds was the left
		// neighbour's, everything else the right neighbour's. A wrong guess
		// only costs probes — the walk visits every peer.
		from := a.ID + 1
		if a.ID > 0 && (hi < p.Lo || int(from) >= len(a.peers)) {
			from = a.ID - 1
		}
		dbg("aeu%d obj%d new bounds [%d,%d] UNCOVERED [%d,%d] -> repair from aeu%d", a.ID, p.Object, newLo, newHi, lo, hi, from)
		a.awaited = append(a.awaited, awaitedRange{obj: p.Object, lo: lo, hi: hi, from: from})
	}
	next := newLo // lowest key of the new bounds not yet known covered
	for _, c := range covered {
		if next > newHi {
			return
		}
		if c.hi < next {
			continue
		}
		if c.lo > next {
			gap(next, min(c.lo-1, newHi))
		}
		if c.hi == ^uint64(0) {
			return
		}
		next = c.hi + 1
	}
	if next <= newHi {
		gap(next, newHi)
	}
}

// handleFetch serves a fetch: extract the requested part of the local
// partition and ship it to the requester, choosing the cheap link
// mechanism when both AEUs share a node and the flatten/copy mechanism
// otherwise (Figure 7).
func (a *AEU) handleFetch(c command.Command) {
	f := c.Fetch
	if f == nil {
		a.ctrlErrors.Inc()
		return
	}
	obj := routing.ObjectID(c.Object)
	p := a.parts[obj]
	if p == nil {
		// The requester is waiting on this transfer; reply with an error so
		// it abandons the pending slot instead of keeping the epoch open.
		a.xferErrors.Inc()
		a.Outbox().Send(c.Source, &command.Command{
			Op: command.OpError, Object: c.Object, Source: a.ID,
			ReplyTo: command.NoReply, Tag: c.Tag,
		})
		return
	}
	if p.Kind == routing.RangePartitioned && a.overlapsAwaited(obj, f.Lo, f.Hi) {
		// Part of the requested range is itself still in flight to this
		// AEU (back-to-back balancing cycles, or a repair fetch healing a
		// lost balance command): defer the fetch until the inbound
		// transfer lands, otherwise the keys would be skipped.
		dbg("aeu%d obj%d handleFetch DEFER req=aeu%d [%d,%d] tag=%d", a.ID, c.Object, c.Source, f.Lo, f.Hi, c.Tag)
		a.deferred = append(a.deferred, c)
		a.deferredCnt.Add(1)
		return
	}
	requester := c.Source
	target := a.peer(requester)
	sameNode := target.Node == a.Node

	t := transfer{obj: obj, epoch: c.Tag, from: a.ID, lo: f.Lo, hi: f.Hi, auth: true, src: p}
	if p.Kind == routing.SizePartitioned {
		a.runHeldScans(obj, p)
		t.det = p.Col.DetachTail(a.Core, f.Tuples)
	} else {
		// The transfer is authoritative when this AEU's bounds covered the
		// whole range just before extraction — then every tuple that exists
		// for it is in the payload. A fetch of the current balancing epoch
		// is judged against the bounds before that epoch's own shrink (the
		// normal cycle order: the source's OpBalance lands before the
		// targets' fetches, with all the data still here). Anything else —
		// a repair probe to an AEU that only holds orphans, or a fetch that
		// raced a later cycle — may return a partial or empty payload, and
		// the requester must keep probing before trusting the range.
		// Ranges under repair when that balance arrived are excepted:
		// the bounds claimed them but the data never came, and a trusted
		// empty transfer would hand the gap to the next owner as settled.
		t.auth = f.Lo >= p.Lo && f.Hi <= p.Hi ||
			(c.Tag != 0 && c.Tag == p.prevEpoch && f.Lo >= p.prevLo && f.Hi <= p.prevHi &&
				!overlapsHoles(p.prevHoles, f.Lo, f.Hi))
		// Extraction is the ownership handover: give up the bounds with the
		// data. Normally the balancer's own OpBalance already shrank them,
		// but if that command was lost this AEU would otherwise keep
		// claiming the range and answer misses from the freshly emptied
		// tree. An extraction fully outside the bounds (repairing orphans
		// after reconciliation already shrank them) leaves them untouched.
		oldLo, oldHi := p.Lo, p.Hi
		if f.Lo <= p.Lo && f.Hi >= p.Lo {
			p.Lo = f.Hi + 1 // may pass p.Hi: partition now empty, all keys forward
		} else if f.Hi >= p.Hi && f.Lo <= p.Hi {
			p.Hi = f.Lo - 1
		}
		ex := p.Tree.ExtractRange(a.Core, f.Lo, f.Hi)
		dbg("aeu%d obj%d handleFetch req=aeu%d [%d,%d] tag=%d extracted=%d auth=%v bounds [%d,%d]->[%d,%d]", a.ID, c.Object, c.Source, f.Lo, f.Hi, c.Tag, ex.Count(), t.auth, oldLo, oldHi, p.Lo, p.Hi)
		if a.wal != nil {
			// Log ownership of [lo, hi] hands off with the data: the
			// handoff record's sequence number is the transfer id the
			// target's link record will carry, pairing the two sides of
			// the transfer for recovery.
			t.xid = a.wal.AppendHandoff(uint32(obj), f.Lo, f.Hi, requester)
		}
		if sameNode {
			t.ex = ex
		} else {
			// Cross-node: flatten to the exchange format, stream it over,
			// free the source nodes.
			t.kvs = ex.Flatten(a.Core)
			ex.Discard(a.Core, a.sessions[obj])
		}
	}
	p.xferGen.Add(1)
	p.inFlight.Add(1)
	target.deliverTransfer(t)
}

// receiveTransfers drains the transfer mailbox, linking or copying the
// payloads into the local partitions and releasing deferred commands once
// an epoch completes.
func (a *AEU) receiveTransfers() {
	a.mailMu.Lock() //eris:allowblock bounded mailbox swap; contended only by control-plane transfer senders
	incoming := a.mail
	a.mail = nil
	a.mailMu.Unlock()
	a.mailCnt.Add(int32(-len(incoming)))

	for _, t := range incoming {
		p := a.parts[t.obj]
		if p == nil {
			// No local partition to absorb the payload: count it, complete
			// the fetch slot so the epoch is not stuck forever. The tuples
			// stay in the source's store when linkable (nothing was copied
			// out) — the conservation checker sees them there.
			a.xferErrors.Inc()
			if t.src != nil {
				t.src.inFlight.Add(-1)
			}
			a.completeFetch(t.obj, t.epoch)
			continue
		}
		switch {
		case t.ex != nil:
			if a.wal != nil {
				// The link record is self-contained (it carries the moved
				// tuples): a transfer whose handoff record was lost to a
				// crash still replays. Flatten is a non-destructive read,
				// so linking afterwards is sound.
				seq := a.wal.AppendLink(uint32(t.obj), t.lo, t.hi, t.xid, t.ex.Flatten(a.Core))
				p.links = append(p.links, linkEntry{lr: durable.LinkRange{Xid: t.xid, Lo: t.lo, Hi: t.hi}, seq: seq})
			}
			p.Tree.Link(a.Core, t.ex)
		case t.kvs != nil:
			if a.wal != nil {
				seq := a.wal.AppendLink(uint32(t.obj), t.lo, t.hi, t.xid, t.kvs)
				p.links = append(p.links, linkEntry{lr: durable.LinkRange{Xid: t.xid, Lo: t.lo, Hi: t.hi}, seq: seq})
			}
			p.Tree.RebuildFrom(a.Core, t.kvs)
		case t.det != nil:
			a.runHeldScans(t.obj, p)
			if err := p.Col.LinkDetached(a.Core, a.Node, t.det); err != nil {
				// Chunks live on another node: copy them over.
				p.Col.CopyDetached(a.Core, t.det, a.mems.Free)
			}
		}
		// Landed (even an empty payload arrives and completes here): bump the
		// target generation, release the source's in-flight slot — scans and
		// the checkpoint bracket read both.
		p.xferGen.Add(1)
		if t.src != nil {
			t.src.inFlight.Add(-1)
		}
		if p.Kind == routing.RangePartitioned {
			dbg("aeu%d obj%d linked transfer [%d,%d] epoch=%d from=aeu%d auth=%v", a.ID, t.obj, t.lo, t.hi, t.epoch, t.from, t.auth)
			if t.auth {
				// The source held everything that exists for the range, so
				// its landing satisfies any awaited range it covers —
				// balance fetches and repair fetches alike.
				a.clearAwaited(t.obj, t.lo, t.hi)
			} else {
				// A non-authoritative payload contributes data (Link is
				// duplicate-safe) but proves nothing about other holders:
				// count the answer and let the repair walk decide.
				a.ackProbe(t.obj, t.lo, t.hi)
			}
		}
		a.completeFetch(t.obj, t.epoch)
	}
}

// clearAwaited removes [lo, hi] from obj's awaited ranges — an authoritative
// transfer covering it landed — splitting entries the interval only
// partially covers. Removing per range (not per epoch) is what lets
// completeFetch tell delivered grants from lost ones when the epoch closes.
// A repair healed this way counts, and releases the deferred queue so work
// parked on it reprocesses; a grant's is released when its epoch completes.
func (a *AEU) clearAwaited(obj routing.ObjectID, lo, hi uint64) {
	if len(a.awaited) == 0 {
		return
	}
	healed := false
	var kept []awaitedRange
	for _, r := range a.awaited {
		if r.obj != obj || lo > r.hi || hi < r.lo {
			kept = append(kept, r)
			continue
		}
		healed = healed || r.epoch == 0
		// Fragments stay with their epoch; a repair's restart their walk:
		// acks were counted against the old interval and probes from here
		// on use the new one.
		if r.lo < lo {
			kept = append(kept, awaitedRange{obj: obj, lo: r.lo, hi: lo - 1, epoch: r.epoch, from: r.from})
		}
		if r.hi > hi {
			kept = append(kept, awaitedRange{obj: obj, lo: hi + 1, hi: r.hi, epoch: r.epoch, from: r.from})
		}
	}
	a.awaited = kept
	if healed {
		dbg("aeu%d obj%d repair healed by transfer [%d,%d]", a.ID, obj, lo, hi)
		a.repairs.Inc()
		a.releaseDeferred()
	}
}

// releaseDeferred hands every deferred command back to the loop for
// reprocessing: what it waited on may have landed, healed or moved away.
func (a *AEU) releaseDeferred() {
	if len(a.deferred) > 0 {
		a.requeue = append(a.requeue, a.deferred...)
		a.deferred = a.deferred[:0]
	}
}

// overlapsHoles reports whether [lo, hi] intersects any of the intervals.
func overlapsHoles(holes []keyRange, lo, hi uint64) bool {
	for _, h := range holes {
		if lo <= h.hi && hi >= h.lo {
			return true
		}
	}
	return false
}

// ackProbe records that a repair probe's transfer landed: the payload is
// linked, but a non-authoritative source proves nothing about other copies,
// so the range is only counted, not cleared — sendRepairs clears it once
// every peer has answered.
func (a *AEU) ackProbe(obj routing.ObjectID, lo, hi uint64) {
	for i := range a.awaited {
		r := &a.awaited[i]
		if r.epoch == 0 && r.obj == obj && r.lo == lo && r.hi == hi {
			r.acks++
		}
	}
}

// pruneAwaited trims awaited ranges of obj to the bounds [lo, hi] just
// adopted (balance command or reconciliation): parts outside are foreign
// now, so their deferred commands must reprocess and forward to the owner.
// (Grants of older epochs were turned into repairs before either caller
// gets here, so in practice only repairs are trimmed.)
func (a *AEU) pruneAwaited(obj routing.ObjectID, lo, hi uint64) {
	changed := false
	kept := a.awaited[:0]
	for _, r := range a.awaited {
		if r.obj != obj || (r.lo >= lo && r.hi <= hi) {
			kept = append(kept, r)
			continue
		}
		changed = true
		if nl, nh := max(r.lo, lo), min(r.hi, hi); nl <= nh {
			dbg("aeu%d obj%d pruneAwaited [%d,%d]->[%d,%d]", a.ID, obj, r.lo, r.hi, nl, nh)
			kept = append(kept, awaitedRange{obj: obj, lo: nl, hi: nh, epoch: r.epoch, from: r.from})
		} else {
			dbg("aeu%d obj%d pruneAwaited [%d,%d] dropped", a.ID, obj, r.lo, r.hi)
		}
	}
	a.awaited = kept
	if changed {
		a.releaseDeferred()
	}
}

// completeFetch decrements the epoch's outstanding transfer count, clears
// satisfied pending ranges and requeues deferred commands.
func (a *AEU) completeFetch(obj routing.ObjectID, epoch uint64) {
	n, ok := a.pendingFetches[epoch]
	if !ok {
		return
	}
	n--
	if n > 0 {
		a.pendingFetches[epoch] = n
		return
	}
	delete(a.pendingFetches, epoch)
	// Grants whose transfer landed were already cleared; anything of this
	// epoch still listed never got its data (the fetch was answered with an
	// error, or the payload had nowhere to link). Keep the bounds — the
	// routing tables already point here — but repair the gap instead of
	// serving misses for keys that still sit at the source.
	for i := range a.awaited {
		if r := &a.awaited[i]; r.epoch == epoch {
			dbg("aeu%d obj%d completeFetch epoch=%d UNSATISFIED [%d,%d] from=aeu%d -> repair", a.ID, r.obj, epoch, r.lo, r.hi, r.from)
			r.epoch = 0
		}
	}
	a.releaseDeferred()
	a.ackEpoch(obj, epoch)
}

// overlapsAwaited reports whether [lo, hi] (a single key when lo == hi)
// intersects a range of obj whose data has not arrived yet.
//
//eris:hotpath
func (a *AEU) overlapsAwaited(obj routing.ObjectID, lo, hi uint64) bool {
	for i := range a.awaited {
		if r := &a.awaited[i]; r.obj == obj && lo <= r.hi && hi >= r.lo {
			return true
		}
	}
	return false
}

// grantOutstanding reports whether any awaited range still has its balance
// fetch outstanding.
func (a *AEU) grantOutstanding() bool {
	for _, r := range a.awaited {
		if r.epoch != 0 {
			return true
		}
	}
	return false
}

// ackEpoch signals the balancer that this AEU finished the epoch. The
// DelayEpochDone fault parks the ack for one loop round, turning it into a
// late (possibly post-timeout, stale) acknowledgement.
func (a *AEU) ackEpoch(obj routing.ObjectID, epoch uint64) {
	if a.faults.Should(faults.DelayEpochDone) {
		a.heldAcks = append(a.heldAcks, heldAck{obj: obj, epoch: epoch})
		return
	}
	if a.epochDone != nil {
		a.epochDone(a.ID, obj, epoch)
	}
}

// releaseHeldAcks delivers acks parked by the DelayEpochDone fault; it
// reports whether any were delivered.
func (a *AEU) releaseHeldAcks() bool {
	if len(a.heldAcks) == 0 {
		return false
	}
	for _, h := range a.heldAcks {
		if a.epochDone != nil {
			a.epochDone(a.ID, h.obj, h.epoch)
		}
	}
	a.heldAcks = a.heldAcks[:0]
	return true
}

// abandonStaleEpochs drops transfer bookkeeping of epochs older than the
// cycle that just arrived. The balancer runs one cycle at a time, so a new
// balance command proves every older epoch's wait has ended (completed or
// timed out); fetch slots an injected fault left open would otherwise defer
// overlapping commands forever. Late transfers of an abandoned epoch still
// land safely: completeFetch ignores unknown epochs.
func (a *AEU) abandonStaleEpochs(current uint64) {
	stale := false
	for ep := range a.pendingFetches {
		if ep < current {
			delete(a.pendingFetches, ep)
			stale = true
		}
	}
	if !stale {
		return
	}
	a.xferErrors.Inc()
	for i := range a.awaited {
		if r := &a.awaited[i]; r.epoch != 0 && r.epoch < current {
			// The grant stands (routing tables already point here) but its
			// data never arrived — the fetch or transfer was eaten by a
			// fault. Repair with a direct fetch rather than serving misses
			// from the empty range while the tuples sit orphaned at the
			// source.
			dbg("aeu%d obj%d abandon epoch=%d UNSATISFIED [%d,%d] from=aeu%d -> repair", a.ID, r.obj, r.epoch, r.lo, r.hi, r.from)
			r.epoch = 0
		}
	}
	a.releaseDeferred()
}

// handleError abandons the pending fetch slot a failed control command was
// holding open (Tag carries the balancing epoch), so the cycle completes
// with whatever data did arrive instead of hanging until timeout.
func (a *AEU) handleError(c command.Command) {
	a.xferErrors.Inc()
	a.completeFetch(routing.ObjectID(c.Object), c.Tag)
}

// reconcileEvery is how often (in loop iterations) an AEU compares its
// range-partition bounds against the published routing tables.
const reconcileEvery = 1024

// reconcileBounds realigns range-partition bounds with the routing tables
// after a lost balance command: the balancer updates the tables before the
// commands are sent, so an AEU whose OpBalance was dropped or corrupted
// keeps stale bounds and bounces commands with the actual owner forever.
// A mismatch is adopted only when (a) no transfer is in flight locally and
// (b) the same target bounds were observed by the previous sweep — the
// short healthy window between a table update and the command's delivery
// never repeats across two sweeps. The high bound of the last owner is
// left alone: the routing table cannot distinguish it from the domain end,
// which only the balancer knows. It reports whether any partition was
// realigned or newly flagged.
func (a *AEU) reconcileBounds() bool {
	repaired := a.sendRepairs()
	if len(a.pendingFetches) > 0 || a.grantOutstanding() || a.mailCnt.Load() > 0 {
		return repaired
	}
	progress := false
	for _, p := range a.partList {
		if p.Kind != routing.RangePartitioned {
			continue
		}
		lo, hi, ok := a.assignedRange(p)
		if !ok {
			p.reconArmed = false
			continue
		}
		if p.Lo == lo && p.Hi == hi {
			p.reconArmed = false
			continue
		}
		if p.reconArmed && p.reconLo == lo && p.reconHi == hi {
			dbg("aeu%d obj%d reconcile adopt [%d,%d]->[%d,%d]", a.ID, p.Object, p.Lo, p.Hi, lo, hi)
			a.noteUncoveredGrant(p, lo, hi, nil)
			p.Lo, p.Hi = lo, hi
			p.reconArmed = false
			a.pruneAwaited(p.Object, lo, hi)
			a.boundsFixed.Inc()
			progress = true
			continue
		}
		p.reconLo, p.reconHi, p.reconArmed = lo, hi, true
		progress = true
	}
	return progress || repaired
}

// assignedRange returns this AEU's key range for p per the current routing
// tables; ok is false when the tables list no range for it. The high bound
// of the last owner falls back to the partition's own: the table cannot
// distinguish it from the domain end, which only the balancer knows.
func (a *AEU) assignedRange(p *Partition) (lo, hi uint64, ok bool) {
	entries := a.router.OwnerEntries(p.Object)
	idx := int(a.ID)
	if idx >= len(entries) || entries[idx].Owner != a.ID {
		return 0, 0, false
	}
	lo, hi = entries[idx].Low, p.Hi
	if idx+1 < len(entries) {
		hi = entries[idx+1].Low - 1
	}
	return lo, hi, true
}

// repairStallSweeps is how many reconcile sweeps a fully-probed but not
// fully-acknowledged repair waits before restarting its walk: a
// probe fetch can be eaten by the same faults that opened the gap, and
// probes are idempotent (the repeat extract finds nothing, Link tolerates
// overlap), so retrying until the rule-limited injector runs dry is safe.
const repairStallSweeps = 4

// maxProbes is the length of a repair walk: every peer except this AEU.
func (a *AEU) maxProbes() uint8 {
	n := len(a.peers)
	if n <= 1 {
		return 0
	}
	if n > 256 {
		n = 256
	}
	return uint8(n - 1)
}

// probeTarget returns the try-th stop of a repair's walk: the recorded
// likely holder first, then every other peer in ID order.
func (a *AEU) probeTarget(r *awaitedRange, try uint8) uint32 {
	if try == 0 {
		return r.from
	}
	i := uint8(0)
	for id := uint32(0); int(id) < len(a.peers); id++ {
		if id == a.ID || id == r.from {
			continue
		}
		i++
		if i == try {
			return id
		}
	}
	return r.from
}

// sendRepairs advances the repair walk of every awaited range without an
// outstanding balance fetch (epoch == 0) by one probe — a zero-epoch fetch
// riding the regular transfer machinery (extract, ship, link), so no
// balancer cycle is involved — and clears ranges whose walk completed:
// every peer probed, every probe's payload landed. An authoritative
// transfer short-circuits the walk in receiveTransfers.
// Ranges the routing tables currently assign elsewhere are left untouched
// (probing would steal the new owner's live data); the bounds prune on the
// next balance or reconcile adoption disposes of them. It reports whether
// any walk advanced.
func (a *AEU) sendRepairs() bool {
	if len(a.awaited) == 0 {
		return false
	}
	maxTries := a.maxProbes()
	progress := false
	cleared := false
	kept := a.awaited[:0]
	for _, r := range a.awaited {
		if r.epoch != 0 {
			kept = append(kept, r)
			continue
		}
		p := a.parts[r.obj]
		if p == nil {
			continue
		}
		if alo, ahi, ok := a.assignedRange(p); !ok || r.lo < alo || r.hi > ahi {
			kept = append(kept, r)
			continue
		}
		switch {
		case r.tries < maxTries:
			tgt := a.probeTarget(&r, r.tries)
			r.tries++
			if tgt == a.ID {
				r.acks++ // nothing to ask: any local data is already linked
			} else {
				dbg("aeu%d obj%d sendRepair probe=%d/%d [%d,%d] -> aeu%d", a.ID, r.obj, r.tries, maxTries, r.lo, r.hi, tgt)
				f := command.Fetch{From: tgt, Lo: r.lo, Hi: r.hi}
				a.Outbox().Send(tgt, &command.Command{
					Op: command.OpFetch, Object: uint32(r.obj), Source: a.ID,
					ReplyTo: command.NoReply, Fetch: &f,
				})
			}
			progress = true
			kept = append(kept, r)
		case r.acks >= r.tries:
			// Walk complete: whatever any peer held for the range is linked
			// here now, so the range is safe to serve.
			dbg("aeu%d obj%d repair walk done [%d,%d]", a.ID, r.obj, r.lo, r.hi)
			a.repairs.Inc()
			cleared = true
			progress = true
		default:
			if r.stall++; r.stall >= repairStallSweeps {
				r.tries, r.acks, r.stall = 0, 0, 0
				progress = true
			}
			kept = append(kept, r)
		}
	}
	a.awaited = kept
	if cleared {
		a.releaseDeferred()
	}
	return progress
}

// XferState returns this AEU's transfer generation and in-flight payload
// count for obj (zero when it holds no partition of it). Readers that need
// a stable cut across AEUs — a column scan's fan-out, the checkpoint's image
// collection — sum the readings before and after: equal sums with nothing in
// flight mean no payload moved in between.
func (a *AEU) XferState(obj routing.ObjectID) (gen, inflight int64) {
	if p := a.parts[obj]; p != nil {
		return p.xferGen.Load(), p.inFlight.Load()
	}
	return 0, 0
}

// RegisterPeers wires the AEU set of one engine so fetch handlers can
// address their transfer targets. It must be called once after all AEUs
// are created and before Run.
func RegisterPeers(aeus []*AEU) {
	for _, a := range aeus {
		a.peers = aeus
	}
}

func (a *AEU) peer(id uint32) *AEU { return a.peers[id] }
