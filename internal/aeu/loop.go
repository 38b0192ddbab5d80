package aeu

import (
	"fmt"
	"runtime"
	"time"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// loop cost constants (virtual nanoseconds).
const (
	groupNSPerCommand = 2   // hash-grouping one drained command
	scanShareNSPerCmd = 5   // registering one scan in a shared pass
	forwardNSPerKey   = 0.5 // validity check + re-route handoff
	idleLoopNS        = 100 // one empty iteration (buffer polling)
)

// skewCheckEvery is how often (in loop iterations) a generating AEU checks
// how far its virtual clock runs ahead of the slowest core.
const skewCheckEvery = 32

// Idle strategy: an AEU that found nothing to do for idleSpins iterations
// in a row and is quiescent parks on its inbox until a producer wakes it,
// at most parkTimeout. The timeout is a safety net for duties counted in
// iterations (reconcileBounds, expireDeferred), not the delivery mechanism:
// every source of work calls Inbox.Wake. The poll before the park is kept
// short on purpose: measured at one AEU per P (serve-lookup), 64 spins
// before parking were slower than 4 at the median and barely better at the
// tail, and with more AEUs than Ps every extra spin is taken from a
// goroutine that has work.
const (
	idleSpins   = 4
	parkTimeout = time.Millisecond
)

// Run executes the AEU loop until Stop is called: Step, and the idle
// strategy whenever a step found nothing to do. It is the goroutine body
// the engine spawns per worker.
//
//eris:loop
func (a *AEU) Run() {
	idle := 0
	for !a.stop.Load() {
		if a.Step() {
			idle = 0
			continue
		}
		// An idle AEU polls its buffers at full speed, but its virtual clock
		// must not race ahead of the workers that still have work: advance
		// only while this core is (close to) the slowest, so idle time
		// tracks busy time instead of the real scheduler's whims.
		min := a.machine.MinClock(0, topology.CoreID(a.router.NumAEUs()))
		if a.machine.Clock(a.Core) <= min+idleLoopNS*1000 {
			a.machine.AdvanceNS(a.Core, idleLoopNS)
		}
		if idle++; idle < idleSpins || !a.quiescent() {
			runtime.Gosched()
			continue
		}
		idle = 0
		if res := a.inbox.Park(parkTimeout, a.wakePending); res != routing.ParkAborted {
			a.parks.Inc()
			if res == routing.ParkTimedOut && a.wakePending() {
				// Work was waiting and nobody announced it: the safety
				// net, not the protocol, delivered this wake-up.
				a.parkTimeouts.Inc()
			}
		}
	}
	if a.wal != nil {
		// A checkpoint request that raced the stop must still be answered
		// (the engine is waiting on Done), and parked acks drain after a
		// final flush — see flushDurableAcks.
		a.serveCheckpoint()
		a.flushDurableAcks()
	}
	a.Outbox().Flush()
}

// Step runs one iteration of the AEU loop on the caller's goroutine and
// reports whether it found anything to do. It never blocks and never idles:
// when and how to wait between steps is the runner's business (Run parks;
// a deterministic single-goroutine runner would just pick the next AEU).
//
//eris:loop
func (a *AEU) Step() bool { return a.step(false) }

// Settle is Step without workload generation and with the bounds
// reconciliation sweep forced instead of waiting for its iteration count.
// The engine calls it in rounds after the AEU goroutines exited, so that
// balancing commands and partition payloads still in flight at shutdown —
// including fault-parked acks and stalled transfers — are applied instead
// of lost.
func (a *AEU) Settle() bool { return a.step(true) }

// step is the loop body: the paper's three stages, then generation and the
// outgoing flush.
func (a *AEU) step(settle bool) bool {
	a.iter++
	a.iterations.Add(1)

	// Acks parked by the DelayEpochDone fault are released one loop round
	// after they were produced.
	busy := a.releaseHeldAcks()

	// Durability housekeeping: release client acks whose WAL records are
	// covered by an fsync, and serve a pending checkpoint-image request at
	// this iteration boundary.
	if a.wal != nil {
		if a.releaseDurableAcks() {
			busy = true
		}
		if a.serveCheckpoint() {
			busy = true
		}
	}

	// Stage 1+2: drain the incoming buffer, group commands by data object
	// and type, then process the groups. Requeued commands (released
	// deferrals) are checked against their deadline first — work that
	// expired waiting out a transfer answers with an error instead of
	// bouncing through another rebalance cycle.
	if drained := a.router.Drain(a.ID, a.classify); drained > 0 {
		a.machine.AdvanceNS(a.Core, groupNSPerCommand*float64(drained))
		busy = true
	}
	if len(a.requeue) > 0 {
		a.drainRequeue()
		busy = true
	}
	if len(a.order) > 0 {
		a.processGroups()
		busy = true
	}

	// Stage 3: balancing and transfer commands. Fault-stalled payloads
	// re-enter the mailbox here, one round late.
	if a.releaseStalled() {
		busy = true
	}
	if a.mailCnt.Load() > 0 {
		a.receiveTransfers()
		busy = true
	}
	if settle || a.iter%reconcileEvery == 0 {
		if a.reconcileBounds() {
			busy = true
		}
		a.expireDeferred()
	}

	// Workload generation. An AEU whose virtual clock ran far ahead of the
	// slowest core pauses generation (but keeps serving incoming commands):
	// this bounds virtual-time skew without ever blocking the processing
	// stage, which peers may be waiting on.
	if !settle && a.generating() {
		if a.iter%skewCheckEvery == 0 {
			a.updateSkew()
		}
		if !a.skewed {
			if !a.Generator.Generate(a) {
				a.genDone.Store(true)
			}
			busy = true
		}
	}

	a.Outbox().Flush()
	return busy
}

// generating reports whether this AEU still has workload to generate.
func (a *AEU) generating() bool { return a.Generator != nil && !a.genDone.Load() }

// quiescent reports whether nothing but an outside producer can make the
// next iteration busy: no self-driven work is queued here (deferred or
// requeued commands, fault-held acks, open fetches, awaited ranges — all of
// which the loop itself retries or sweeps), and no AEU of
// the engine is generating workload. The second half keeps figure runs on
// the polling loop: updateSkew gates generation on the slowest clock, so
// while any generator lives every clock has to keep moving. Parked durable
// acks do not count — the WAL writer wakes the AEU when it publishes the
// watermark that covers them.
func (a *AEU) quiescent() bool {
	if len(a.deferred) > 0 || len(a.requeue) > 0 || len(a.heldAcks) > 0 ||
		len(a.pendingFetches) > 0 || len(a.awaited) > 0 {
		return false
	}
	if a.generating() {
		return false
	}
	for _, p := range a.peers {
		if p.generating() {
			return false
		}
	}
	return true
}

// wakePending is the re-check between publishing the parked flag and
// blocking: true when a wake source fired before the flag was visible to
// its producer.
func (a *AEU) wakePending() bool {
	return a.stop.Load() || a.inbox.Pending() ||
		a.mailCnt.Load() > 0 || a.stalledCnt.Load() > 0 ||
		a.ckptReq.Load() != nil || a.durableAckReady()
}

// updateSkew refreshes the generation gate: true while this AEU's virtual
// clock is more than the skew window ahead of the slowest core.
func (a *AEU) updateSkew() {
	last := topology.CoreID(a.router.NumAEUs())
	windowPS := int64(a.cfg.SkewWindowNS * 1000)
	min := a.machine.MinClock(0, last)
	a.skewed = a.machine.Clock(a.Core)-min > windowPS
}

// classify sorts one drained command into the per-(object, type) groups or
// the control queues; this is the paper's command-grouping stage. Drained
// commands are decoded zero-copy, so c.Keys and c.KVs are valid only for
// the duration of this call: batch contents are copied into the group
// immediately, and retained scan bounds are cloned into the group's arena.
//
//eris:hotpath
func (a *AEU) classify(c command.Command) {
	switch c.Op {
	case command.OpLookup, command.OpUpsert, command.OpDelete:
		k := groupKey{obj: routing.ObjectID(c.Object), op: c.Op, replyTo: c.ReplyTo, tag: c.Tag, source: c.Source, deadline: c.Deadline}
		if c.ReplyTo == command.NoReply {
			// Results are consumed locally: commands from all sources can
			// share one batch.
			k.tag, k.source = 0, 0
		}
		if a.cfg.NoCoalesce {
			a.noCoSeq++
			k.tag = a.noCoSeq
		}
		g := a.group(k)
		g.keys = append(g.keys, c.Keys...)
		g.kvs = append(g.kvs, c.KVs...)
	case command.OpScan:
		k := groupKey{obj: routing.ObjectID(c.Object), op: c.Op}
		if a.cfg.NoCoalesce {
			// Group splitting applies to scans too: each scan runs its own
			// partition pass instead of joining a shared one, so the
			// ablation measures uncoalesced scan cost honestly.
			a.noCoSeq++
			k.tag = a.noCoSeq
		}
		g := a.group(k)
		if len(c.Keys) > 0 {
			start := len(g.scanKeys)
			g.scanKeys = append(g.scanKeys, c.Keys...)
			c.Keys = g.scanKeys[start:len(g.scanKeys):len(g.scanKeys)]
		}
		g.scans = append(g.scans, c)
	case command.OpResult:
		a.handleResult(c)
	case command.OpBalance:
		a.handleBalance(c) //eris:allowalloc control-plane dispatch; balance traffic is off the data hot path
	case command.OpFetch:
		a.handleFetch(c) //eris:allowalloc control-plane dispatch; fetch traffic is off the data hot path
	case command.OpError:
		a.handleError(c) //eris:allowalloc control-plane dispatch; error handling is off the data hot path
	default:
		a.rejectUnserved(c) //eris:allowalloc cold rejection path; a served op never reaches it
	}
}

// rejectUnserved answers a command that decoded but carries an op this loop
// does not serve; it cannot be executed, but a requester waiting on it must
// hear that — a silent drop would leave a remote client hanging until its
// timeout. Deliberately not //eris:hotpath: the error construction below
// allocates, and keeping it out of classify keeps the hot path alloc-free.
func (a *AEU) rejectUnserved(c command.Command) {
	a.ctrlErrors.Inc()
	if c.ReplyTo != command.NoReply {
		a.replyErr(
			groupKey{obj: routing.ObjectID(c.Object), replyTo: c.ReplyTo, tag: c.Tag, source: c.Source},
			answeredOf(c),
			fmt.Errorf("aeu %d: unserved op %v", a.ID, c.Op),
		)
	}
}

// answeredOf is how many request units a definitive failure of c settles,
// mirroring the accounting of successful replies (keys for batches, one
// per scan command); never zero so a waiting issuer always makes progress.
//
//eris:hotpath
func answeredOf(c command.Command) int {
	n := len(c.Keys)
	if len(c.KVs) > n {
		n = len(c.KVs)
	}
	if c.Op == command.OpScan {
		n = 1
	}
	if n < 1 {
		n = 1
	}
	return n
}

// drainRequeue reclassifies commands released from the deferred queue,
// expiring those whose deadline passed while they were parked.
//
//eris:hotpath
func (a *AEU) drainRequeue() {
	if len(a.requeue) == 0 {
		return
	}
	now := uint64(time.Now().UnixNano())
	for _, c := range a.requeue {
		if c.Deadline != 0 && now > c.Deadline {
			a.expireCommand(c) //eris:allowalloc deadline-expiry path; expired commands are off the steady-state path
			continue
		}
		a.classify(c)
	}
	a.requeue = a.requeue[:0]
}

// expireDeferred sweeps the deferred queue for commands whose deadline
// passed while their transfer epoch is still open — without this, a
// wedged epoch (faults, lost acks) parks deadline-carrying work until an
// unrelated balance cycle flushes it.
func (a *AEU) expireDeferred() {
	if len(a.deferred) == 0 {
		return
	}
	now := uint64(time.Now().UnixNano())
	kept := a.deferred[:0]
	for _, c := range a.deferred {
		if c.Deadline != 0 && now > c.Deadline {
			a.expireCommand(c) //eris:allowalloc deadline-expiry path; expired commands are off the steady-state path
			continue
		}
		kept = append(kept, c)
	}
	a.deferred = kept
}

// expireCommand answers a deadline-expired command with ErrExpired.
func (a *AEU) expireCommand(c command.Command) {
	a.expired.Inc()
	if c.ReplyTo == command.NoReply {
		return
	}
	a.replyErr(
		groupKey{obj: routing.ObjectID(c.Object), replyTo: c.ReplyTo, tag: c.Tag, source: c.Source},
		answeredOf(c), ErrExpired,
	)
}

// group returns the group for k, recycling a released one when available.
//
//eris:hotpath
func (a *AEU) group(k groupKey) *group {
	g := a.groups[k]
	if g == nil {
		if n := len(a.groupFree); n > 0 {
			g = a.groupFree[n-1]
			a.groupFree = a.groupFree[:n-1]
		} else {
			g = &group{} //eris:allowalloc pool-miss fallback; groups recycle through a.groupFree after warmup
		}
		a.groups[k] = g
		a.order = append(a.order, k)
	}
	return g
}

// releaseGroup returns a processed group to the freelist, keeping the
// batch capacity for the next loop iteration.
//
//eris:hotpath
func (a *AEU) releaseGroup(k groupKey, g *group) {
	delete(a.groups, k)
	g.keys = g.keys[:0]
	g.kvs = g.kvs[:0]
	g.scans = g.scans[:0]
	g.scanKeys = g.scanKeys[:0]
	a.groupFree = append(a.groupFree, g)
}

// processGroups executes all grouped commands; this is the most time
// consuming part of the loop.
//
//eris:hotpath
func (a *AEU) processGroups() {
	for _, k := range a.order {
		g := a.groups[k]
		p := a.parts[k.obj]
		if p == nil {
			// The AEU holds no partition of this object (e.g. freshly
			// rebalanced away); forward everything.
			a.forwardGroup(k, g)
			a.releaseGroup(k, g)
			continue
		}
		start := a.machine.Clock(a.Core)
		switch k.op {
		case command.OpLookup:
			a.processLookups(k, g, p)
		case command.OpUpsert:
			a.processUpserts(k, g, p)
		case command.OpDelete:
			a.processDeletes(k, g, p)
		case command.OpScan:
			a.processScans(g, p)
		}
		elapsed := a.machine.Clock(a.Core) - start
		p.cmdTimePS.Add(elapsed)
		p.cmdCount.Add(1)
		a.groupNS.Observe(elapsed / 1000)
		a.releaseGroup(k, g)
	}
	a.order = a.order[:0]
}

// admit is the prologue every point-op group shares. It splits the batch
// against p: members outside p's bounds (stale routing) are re-routed to
// their current owner, members whose range is granted here but still
// awaited are deferred until the data lands, and the rest are returned for
// execution. A group carries keys (lookup, delete) or kvs (upsert), so one
// of the results is always empty.
//
//eris:hotpath
func (a *AEU) admit(k groupKey, g *group, p *Partition) ([]uint64, []prefixtree.KV) {
	valid, foreign := a.scratch.valid[:0], a.scratch.foreign[:0]
	validKVs, foreignKVs := a.scratch.validKVs[:0], a.scratch.foreignKVs[:0]
	// Deferred members outlive the loop iteration, so they get fresh
	// slices, never group batches or scratch (rare: only while an inbound
	// transfer is open).
	var pend []uint64
	var pendKVs []prefixtree.KV
	for _, key := range g.keys {
		switch {
		case key < p.Lo || key > p.Hi:
			foreign = append(foreign, key)
		case a.overlapsAwaited(p.Object, key, key):
			pend = append(pend, key)
		default:
			valid = append(valid, key)
		}
	}
	for _, kv := range g.kvs {
		switch {
		case kv.Key < p.Lo || kv.Key > p.Hi:
			foreignKVs = append(foreignKVs, kv)
		case a.overlapsAwaited(p.Object, kv.Key, kv.Key):
			pendKVs = append(pendKVs, kv)
		default:
			validKVs = append(validKVs, kv)
		}
	}
	a.scratch.valid, a.scratch.foreign = valid, foreign
	a.scratch.validKVs, a.scratch.foreignKVs = validKVs, foreignKVs

	if n := len(foreign) + len(foreignKVs); n > 0 {
		a.machine.AdvanceNS(a.Core, forwardNSPerKey*float64(n))
		a.forward(k, foreign, foreignKVs)
	}
	if n := len(pend) + len(pendKVs); n > 0 {
		a.deferred = append(a.deferred, command.Command{
			Op: k.op, Object: uint32(k.obj), Source: k.source,
			ReplyTo: k.replyTo, Tag: k.tag, Keys: pend, KVs: pendKVs, Deadline: k.deadline,
		})
		a.deferredCnt.Add(int64(n))
	}
	return valid, validKVs
}

// forward re-routes point-op members to their current owner under the
// group's reply address, tag and deadline.
//
//eris:hotpath
func (a *AEU) forward(k groupKey, keys []uint64, kvs []prefixtree.KV) {
	if n := len(keys) + len(kvs); n > 0 {
		a.Outbox().RouteBatch(k.op, k.obj, keys, kvs, k.replyTo, k.tag, k.deadline)
		a.forwards.Add(int64(n))
	}
}

//eris:hotpath
func (a *AEU) processLookups(k groupKey, g *group, p *Partition) {
	valid, _ := a.admit(k, g, p)
	if len(valid) == 0 {
		return
	}

	if cap(a.scratch.values) < len(valid) {
		a.scratch.values = make([]uint64, len(valid)) //eris:allowalloc amortized scratch growth, reused across iterations; pinned by AllocsPerRun benchmarks
		a.scratch.found = make([]bool, len(valid))    //eris:allowalloc grown with values above
	}
	values := a.scratch.values[:len(valid)]
	found := a.scratch.found[:len(valid)]
	p.Tree.LookupBatch(a.Core, valid, values, found)
	p.accesses.Add(int64(len(valid)))
	a.countOps(int64(len(valid)))

	if k.replyTo == command.NoReply {
		return
	}
	kvs := a.scratch.replyKVs[:0]
	for i := range valid {
		if found[i] {
			kvs = append(kvs, prefixtree.KV{Key: valid[i], Value: values[i]})
		}
	}
	a.scratch.replyKVs = kvs
	a.reply(k, kvs, len(valid))
}

//eris:hotpath
func (a *AEU) processDeletes(k groupKey, g *group, p *Partition) {
	valid, _ := a.admit(k, g, p)
	if len(valid) == 0 {
		return
	}
	p.Tree.DeleteBatch(a.Core, valid)
	p.accesses.Add(int64(len(valid)))
	a.countOps(int64(len(valid)))
	var seq uint64
	if a.wal != nil {
		seq = a.wal.AppendDelete(uint32(k.obj), valid)
	}
	if k.replyTo != command.NoReply && !a.parkAck(k, len(valid), seq) {
		a.reply(k, nil, len(valid)) // delete ack without payload
	}
}

//eris:hotpath
func (a *AEU) processUpserts(k groupKey, g *group, p *Partition) {
	_, validKVs := a.admit(k, g, p)
	if len(validKVs) == 0 {
		return
	}
	p.Tree.UpsertBatch(a.Core, validKVs)
	p.accesses.Add(int64(len(validKVs)))
	a.countOps(int64(len(validKVs)))
	var seq uint64
	if a.wal != nil {
		seq = a.wal.AppendUpsert(uint32(k.obj), validKVs)
	}
	if k.replyTo != command.NoReply && !a.parkAck(k, len(validKVs), seq) {
		a.reply(k, nil, len(validKVs)) // upsert ack without payload
	}
}

// processScans executes all scan commands of one object with a single data
// pass (scan sharing); isolation comes from the column's MVCC snapshot.
//
//eris:hotpath
func (a *AEU) processScans(g *group, p *Partition) {
	a.machine.AdvanceNS(a.Core, scanShareNSPerCmd*float64(len(g.scans)))
	if p.Kind == routing.SizePartitioned {
		a.processColumnScans(g, p)
	} else {
		a.processIndexScans(g, p)
	}
}

// processColumnScans runs one morsel-driven shared pass over the column:
// SharedScan walks the blocks once and feeds every attached scan's
// aggregate, pruning per scan with the value bounds the fan-out carried on
// the command (Keys = [lo, hi]) intersected with the predicate's own
// bounds — the intersection keeps a bad peer's bounds from widening what a
// zone map may accept wholesale.
//
//eris:hotpath
func (a *AEU) processColumnScans(g *group, p *Partition) {
	snapshot := p.Col.Snapshot()
	if cap(a.scratch.scanAggs) < len(g.scans) {
		a.scratch.scanAggs = make([]colstore.ScanAgg, len(g.scans))   //eris:allowalloc amortized scratch growth, reused across iterations
		a.scratch.scanSpecs = make([]colstore.ScanSpec, len(g.scans)) //eris:allowalloc grown with scanAggs above
	}
	aggs := a.scratch.scanAggs[:len(g.scans)]
	specs := a.scratch.scanSpecs[:len(g.scans)]
	clear(aggs)
	for i := range g.scans {
		c := &g.scans[i]
		specs[i] = colstore.SpecOf(c.Pred)
		if len(c.Keys) == 2 {
			if c.Keys[0] > specs[i].Lo {
				specs[i].Lo = c.Keys[0]
			}
			if c.Keys[1] < specs[i].Hi {
				specs[i].Hi = c.Keys[1]
			}
		}
	}
	stats := p.Col.SharedScan(a.Core, snapshot, specs, aggs, &a.scratch.scanScratch)
	a.colBlocksScanned.Add(stats.BlocksScanned)
	a.colBlocksPruned.Add(stats.BlocksPruned)
	a.colBlocksFullHit.Add(stats.BlocksFullHit)
	p.accesses.Add(int64(len(g.scans)))
	a.countOps(int64(len(g.scans)))
	for i, c := range g.scans {
		if c.ReplyTo == command.NoReply {
			continue
		}
		kvs := append(a.scratch.replyKVs[:0], prefixtree.KV{Key: aggs[i].Matched, Value: aggs[i].Sum})
		a.scratch.replyKVs = kvs
		a.reply(groupKey{obj: routing.ObjectID(c.Object), replyTo: c.ReplyTo, tag: c.Tag, source: c.Source}, kvs, 1)
	}
}

// CountColScanBlocks records block outcomes of a column scan executed
// outside the command loop (e.g. a generator scanning its own partition),
// so the colscan.* counters reflect every pass.
//
//eris:hotpath
func (a *AEU) CountColScanBlocks(scanned, pruned, fullHit int64) {
	a.colBlocksScanned.Add(scanned)
	a.colBlocksPruned.Add(pruned)
	a.colBlocksFullHit.Add(fullHit)
}

//eris:hotpath
func (a *AEU) processIndexScans(g *group, p *Partition) {
	for _, c := range g.scans {
		lo, hi := p.Lo, p.Hi
		if len(c.Keys) == 2 {
			if c.Keys[0] > lo {
				lo = c.Keys[0]
			}
			if c.Keys[1] < hi {
				hi = c.Keys[1]
			}
		}
		if lo <= hi && a.overlapsAwaited(p.Object, lo, hi) {
			// Part of the effective range was granted to this AEU but its
			// tuples are still in transit (or still being repaired after a
			// lost balance command); answering now would silently miss
			// them. Defer the scan until the data lands.
			a.deferred = append(a.deferred, c.Clone()) //eris:allowalloc deferred scan must own its key slice (retention contract); transfer-window edge case
			a.deferredCnt.Add(1)
			continue
		}
		if c.Limit > 0 {
			// Rows mode: materialize up to Limit matching pairs and route
			// them back as an intermediate result.
			rows := a.scratch.replyKVs[:0]
			if lo <= hi {
				p.Tree.Scan(a.Core, lo, hi, func(key, value uint64) bool { //eris:allowalloc synchronous non-escaping visitor; index scan entry point
					if c.Pred.Matches(value) {
						rows = append(rows, prefixtree.KV{Key: key, Value: value})
					}
					return len(rows) < int(c.Limit)
				})
			}
			a.scratch.replyKVs = rows
			p.accesses.Add(1)
			a.countOps(1)
			if c.ReplyTo != command.NoReply {
				a.reply(groupKey{obj: routing.ObjectID(c.Object), replyTo: c.ReplyTo, tag: c.Tag, source: c.Source}, rows, 1)
			}
			continue
		}
		var matched, sum uint64
		if lo <= hi {
			p.Tree.Scan(a.Core, lo, hi, func(key, value uint64) bool { //eris:allowalloc synchronous non-escaping visitor; index scan entry point
				if c.Pred.Matches(value) {
					matched++
					sum += value
				}
				return true
			})
		}
		p.accesses.Add(1)
		a.countOps(1)
		if c.ReplyTo != command.NoReply {
			// Aggregate replies carry a coverage interval after the
			// {matched, sum} pair: the key range this answer actually
			// inspected. The issuer unions the intervals of all replies and
			// retries the scan when they leave a gap in (or overlap) the
			// requested range — the exactness handshake that makes range
			// scans correct while the balancer is moving partition bounds.
			kvs := append(a.scratch.replyKVs[:0], prefixtree.KV{Key: matched, Value: sum})
			if lo <= hi {
				kvs = append(kvs, prefixtree.KV{Key: lo, Value: hi})
			}
			a.scratch.replyKVs = kvs
			a.reply(groupKey{obj: routing.ObjectID(c.Object), replyTo: c.ReplyTo, tag: c.Tag, source: c.Source}, kvs, 1)
		}
	}
}

// forwardGroup re-routes a whole group for an object this AEU no longer
// holds.
//
//eris:hotpath
func (a *AEU) forwardGroup(k groupKey, g *group) {
	if k.op != command.OpScan {
		a.forward(k, g.keys, g.kvs)
		return
	}
	// A scan reaching a non-holder saw a stale multicast bitmap; the data
	// lives elsewhere. Answer with an empty result carrying no coverage so
	// the issuer detects the gap and retries, instead of waiting for a
	// reply that will never come.
	for _, c := range g.scans {
		if c.ReplyTo == command.NoReply {
			continue
		}
		rk := groupKey{obj: routing.ObjectID(c.Object), replyTo: c.ReplyTo, tag: c.Tag, source: c.Source}
		if c.Limit > 0 {
			a.reply(rk, nil, 1)
		} else {
			kvs := append(a.scratch.replyKVs[:0], prefixtree.KV{})
			a.scratch.replyKVs = kvs
			a.reply(rk, kvs, 1)
		}
	}
	a.forwards.Add(int64(len(g.scans)))
}

// reply routes a result to the requester or the engine's client callback.
// answered is the number of request keys (or, for scans, scan commands)
// this reply settles — it can exceed len(kvs) for lookups that missed and
// upsert/delete acks, which carry no payload.
//
//eris:hotpath
func (a *AEU) reply(k groupKey, kvs []prefixtree.KV, answered int) {
	if k.replyTo == ClientReply {
		if a.onClientResult != nil {
			a.onClientResult(k.tag, a.ID, kvs, answered, nil)
		}
		return
	}
	cmd := command.Command{
		Op: command.OpResult, Object: uint32(k.obj), Source: a.ID,
		ReplyTo: command.NoReply, Tag: k.tag, KVs: kvs,
	}
	a.Outbox().Send(uint32(k.replyTo), &cmd)
}

// replyErr reports a definitive failure to the requester: the engine's
// client callback hears the error directly; an AEU requester gets an
// OpError whose Tag carries the correlation id (handleError treats an
// unknown epoch as a no-op, so misdirected ones are harmless).
func (a *AEU) replyErr(k groupKey, answered int, err error) {
	if k.replyTo == ClientReply {
		if a.onClientResult != nil {
			a.onClientResult(k.tag, a.ID, nil, answered, err)
		}
		return
	}
	if k.replyTo == command.NoReply {
		return
	}
	cmd := command.Command{
		Op: command.OpError, Object: uint32(k.obj), Source: a.ID,
		ReplyTo: command.NoReply, Tag: k.tag,
	}
	a.Outbox().Send(uint32(k.replyTo), &cmd)
}

// handleResult surfaces routed results to the result callback; AEU-level
// query processing (joins etc.) sits above the storage engine, so results
// arriving here are for the engine client.
//
//eris:hotpath
func (a *AEU) handleResult(c command.Command) {
	if a.onClientResult != nil {
		a.onClientResult(c.Tag, c.Source, c.KVs, len(c.KVs), nil)
	}
}
