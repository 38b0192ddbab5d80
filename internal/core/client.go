package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"eris/internal/aeu"
	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/prefixtree"
	"eris/internal/routing"
)

// ErrClosed is returned by synchronous client calls once Stop has begun:
// in-flight calls fail immediately instead of waiting for replies that die
// with the AEU loops, and new calls are refused.
var ErrClosed = errors.New("core: engine closed")

// ErrDeadlineExceeded is returned by synchronous client calls whose
// context deadline passed before every partition answered, and by calls
// whose commands expired inside the engine (for example while deferred
// across a rebalance cycle).
var ErrDeadlineExceeded = errors.New("core: deadline exceeded")

// pendingOp tracks one synchronous client request across the AEUs serving
// its pieces. Accounting is per request key (per scan command for scans),
// not per reply: a command that splits into an applied part and a forwarded
// or deferred part produces several replies whose answered counts must sum
// to want before the operation is complete.
type pendingOp struct {
	want int
	got  int
	born time.Time // when the call registered; the stall sweep ages it
	// A lookup has a non-nil rows and copies each reply once into it,
	// inserted before the first row with a larger key: every reply answers
	// one owner's run of the batch, so sorted input stays sorted without a
	// sort. Scans keep one copy per reply in replies, because their heads
	// are per-reply aggregates.
	rows    []prefixtree.KV
	replies [][]prefixtree.KV
	err     error
	done    chan struct{}
}

// deliverClientResult is installed as every AEU's client callback. kvs may
// alias AEU scratch, so each reply is copied before it is retained. A
// non-nil err marks the answered portion as failed (today: expired at the
// AEU); the operation still waits for its remaining replies but completes
// with the first error it saw.
func (e *Engine) deliverClientResult(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
	e.clientMu.Lock()
	defer e.clientMu.Unlock()
	p := e.pending[tag]
	if p == nil {
		return // late result after timeout or shutdown
	}
	if err != nil && p.err == nil {
		if errors.Is(err, aeu.ErrExpired) {
			err = fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
		}
		p.err = err
	}
	if len(kvs) > 0 {
		if p.rows != nil {
			i, _ := slices.BinarySearchFunc(p.rows, kvs[0].Key, func(kv prefixtree.KV, k uint64) int { return cmp.Compare(kv.Key, k) })
			p.rows = slices.Insert(p.rows, i, kvs...)
		} else {
			p.replies = append(p.replies, append([]prefixtree.KV(nil), kvs...))
		}
	}
	p.got += answered
	if p.got >= p.want {
		delete(e.pending, tag)
		close(p.done)
	}
}

// newPending registers a call of want answer units. rows > 0 makes it a
// lookup whose result slice holds up to rows pairs.
func (e *Engine) newPending(want, rows int) (uint64, *pendingOp, error) {
	p := &pendingOp{want: want, born: time.Now(), done: make(chan struct{})}
	if rows > 0 {
		p.rows = make([]prefixtree.KV, 0, rows)
	}
	e.clientMu.Lock()
	defer e.clientMu.Unlock()
	if e.clientClosed {
		return 0, nil, ErrClosed
	}
	e.nextTag++
	e.pending[e.nextTag] = p
	return e.nextTag, p, nil
}

func (e *Engine) cancelPending(tag uint64) {
	e.clientMu.Lock()
	defer e.clientMu.Unlock()
	delete(e.pending, tag)
}

// failPending fails every in-flight synchronous call with ErrClosed,
// refuses new ones and ends the stall sweep; Stop and CrashStop call it
// before taking the AEU loops down.
func (e *Engine) failPending() {
	e.clientMu.Lock()
	if !e.clientClosed && e.sweepStop != nil {
		close(e.sweepStop)
	}
	e.clientClosed = true
	for tag, p := range e.pending {
		p.err = ErrClosed
		close(p.done)
		delete(e.pending, tag)
	}
	e.clientMu.Unlock()
	e.sweeper.Wait()
}

// clientTimeout bounds synchronous client calls; the engine is in-process,
// so a stall means a bug, not a slow network. No call arms a timer of its
// own: newPending stamps each call's birth, and one sweep per engine
// (sweepPending, every clientTimeout/30) fails the calls older than the
// bound. It is a variable only so the stall test can shorten it.
var clientTimeout = 30 * time.Second

// sweepPending fails every call registered longer than clientTimeout ago,
// every tick of clientTimeout/30, until stop closes.
func (e *Engine) sweepPending(stop <-chan struct{}) {
	defer e.sweeper.Done()
	bound := clientTimeout
	t := time.NewTicker(bound / 30)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			e.clientMu.Lock()
			for tag, p := range e.pending {
				if now.Sub(p.born) >= bound {
					p.err = fmt.Errorf("core: client request %d timed out", tag)
					close(p.done)
					delete(e.pending, tag)
				}
			}
			e.clientMu.Unlock()
		}
	}
}

// deadlineOf returns ctx's deadline as absolute unix nanoseconds for
// command headers; zero when ctx has none.
func deadlineOf(ctx context.Context) uint64 {
	if d, ok := ctx.Deadline(); ok {
		return uint64(d.UnixNano())
	}
	return 0
}

// call is the bracket every synchronous client call shares: it registers
// want answer units under a fresh tag, injects each command at the AEU its
// Source names with the client reply address, the tag and ctx's deadline
// stamped on, and waits until every unit is answered. rows > 0 merges the
// replies into one result of at most rows pairs (see pendingOp). No
// commands means nothing to wait for.
func (e *Engine) call(ctx context.Context, want, rows int, cmds []command.Command) (*pendingOp, error) {
	if len(cmds) == 0 {
		return &pendingOp{}, nil
	}
	tag, p, err := e.newPending(want, rows)
	if err != nil {
		return nil, err
	}
	deadline := deadlineOf(ctx)
	for i := range cmds {
		c := &cmds[i]
		c.ReplyTo, c.Tag, c.Deadline = aeu.ClientReply, tag, deadline
		e.router.Inject(c.Source, c)
	}
	if err := e.await(ctx, p, tag); err != nil {
		return nil, err
	}
	return p, nil
}

// index validates a call named what on object id: the engine must be
// started and id must be an index.
func (e *Engine) index(what string, id routing.ObjectID) (*objectMeta, error) {
	if !e.started {
		return nil, fmt.Errorf("core: %s before Start", what)
	}
	meta := e.objects[id]
	if meta == nil || meta.kind != routing.RangePartitioned {
		return nil, fmt.Errorf("core: object %d is not an index", id)
	}
	return meta, nil
}

// callScratch is the per-call working memory of pointCall, pooled across
// calls: the batch's keys, their owners, the per-AEU key counts, and the
// commands with the owner-grouped keys or pairs they carry. Nothing of it
// outlives the call, because Inject copies each command into the inbox.
type callScratch struct {
	keys   []uint64
	owners []uint32
	counts []int
	cmds   []command.Command
	keyBuf []uint64
	kvBuf  []prefixtree.KV
}

// callScratchPool holds *callScratch for every engine. It is a package
// variable on purpose: the runtime keeps each used sync.Pool reachable
// until two collections after its last use, and a pool inside Engine
// would keep a closed engine, with all its partitions, alive that long.
// Only scratch of batches up to maxPooledKeys returns to it, so a bulk
// load's buffers are not kept after the load.
var callScratchPool sync.Pool

const maxPooledKeys = 1024

// grow returns s resized to n elements, reallocating only when n exceeds
// its capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pointCall is the one path of the point operations: validate the batch
// against index id, split it by owner (the client does its own
// routing-table lookup) and run one command per owner as a single call.
// keys carries a lookup or delete batch, kvs an upsert batch. The owners
// come from one pass over the partition table, and each owner's command
// keeps the batch's order, so a sorted batch yields one ascending run per
// owner. Lookups merge their replies into a result of at most len(keys)
// pairs.
func (e *Engine) pointCall(ctx context.Context, what string, op command.Op, id routing.ObjectID, keys []uint64, kvs []prefixtree.KV) (*pendingOp, error) {
	meta, err := e.index(what, id)
	if err != nil {
		return nil, err
	}
	sc, _ := callScratchPool.Get().(*callScratch)
	if sc == nil {
		sc = new(callScratch)
	}
	if len(keys)+len(kvs) <= maxPooledKeys {
		defer callScratchPool.Put(sc)
	}
	upsert := op == command.OpUpsert
	if upsert {
		sc.keys = sc.keys[:0]
		for _, kv := range kvs {
			sc.keys = append(sc.keys, kv.Key)
		}
		keys = sc.keys
	}
	for _, key := range keys {
		if key >= meta.domain {
			return nil, fmt.Errorf("core: key %d outside domain %d", key, meta.domain)
		}
	}
	n := len(keys)
	sc.owners = grow(sc.owners, n)
	e.router.OwnersSorted(id, keys, sc.owners)

	// Count the keys per owner, lay the owners' runs out back to back in
	// AEU order, then place each key at its owner's cursor.
	counts := grow(sc.counts, len(e.aeus))
	clear(counts)
	for _, o := range sc.owners {
		counts[o]++
	}
	if upsert {
		sc.kvBuf = grow(sc.kvBuf, n)
	} else {
		sc.keyBuf = grow(sc.keyBuf, n)
	}
	cmds := sc.cmds[:0]
	off := 0
	for a, c := range counts {
		if c == 0 {
			continue
		}
		cmd := command.Command{Op: op, Object: uint32(id), Source: uint32(a)}
		if upsert {
			cmd.KVs = sc.kvBuf[off : off+c]
		} else {
			cmd.Keys = sc.keyBuf[off : off+c]
		}
		cmds = append(cmds, cmd)
		counts[a] = off
		off += c
	}
	for i, o := range sc.owners {
		if upsert {
			sc.kvBuf[counts[o]] = kvs[i]
		} else {
			sc.keyBuf[counts[o]] = keys[i]
		}
		counts[o]++
	}
	sc.counts, sc.cmds = counts, cmds
	rows := 0
	if op == command.OpLookup {
		rows = n
	}
	return e.call(ctx, n, rows, cmds)
}

// LookupCtx synchronously looks up keys in an index object and returns the
// found pairs sorted by key. ctx's deadline rides the issued commands (so
// the AEUs can expire deferred work) and bounds the wait. The engine must
// be started.
func (e *Engine) LookupCtx(ctx context.Context, id routing.ObjectID, keys []uint64) ([]prefixtree.KV, error) {
	p, err := e.pointCall(ctx, "Lookup", command.OpLookup, id, keys, nil)
	if err != nil {
		return nil, err
	}
	// The merge leaves sorted batches sorted; unsorted batches, and
	// forwarded pieces whose runs interleave, need the sort.
	if !slices.IsSortedFunc(p.rows, compareKV) {
		slices.SortFunc(p.rows, compareKV)
	}
	return p.rows, nil
}

// compareKV orders pairs by key.
func compareKV(a, b prefixtree.KV) int { return cmp.Compare(a.Key, b.Key) }

// UpsertCtx synchronously inserts or overwrites pairs in an index object;
// ctx as in LookupCtx.
func (e *Engine) UpsertCtx(ctx context.Context, id routing.ObjectID, kvs []prefixtree.KV) error {
	_, err := e.pointCall(ctx, "Upsert", command.OpUpsert, id, nil, kvs)
	return err
}

// DeleteCtx synchronously removes keys from an index object; keys that are
// not present are ignored. ctx as in LookupCtx.
func (e *Engine) DeleteCtx(ctx context.Context, id routing.ObjectID, keys []uint64) error {
	_, err := e.pointCall(ctx, "Delete", command.OpDelete, id, keys, nil)
	return err
}

// ScanAggregate is the result of a synchronous scan: how many values
// matched the predicate and their (wrapping) sum.
type ScanAggregate struct {
	Matched uint64
	Sum     uint64
}

// Scan retries: how often a scan whose fan-out overlapped a balancing step
// is re-issued before giving up, and the pause between attempts. The
// overlap is transient — it ends as soon as the in-flight transfer lands —
// so the backoff is short.
const (
	scanRetries = 64
	scanBackoff = 200 * time.Microsecond
)

// retryScan is the retry loop of both scan kinds: it re-runs once until an
// attempt reports a result it can trust, pausing scanBackoff in between.
// An untrusted aggregate is never returned: running out of attempts is an
// error, and so is ctx ending first (ErrDeadlineExceeded). what names the
// scan in errors.
func retryScan(ctx context.Context, what string, once func() (agg ScanAggregate, trusted bool, err error)) (ScanAggregate, error) {
	for attempt := 0; ; attempt++ {
		agg, trusted, err := once()
		if err != nil || trusted {
			return agg, err
		}
		if attempt >= scanRetries {
			return ScanAggregate{}, fmt.Errorf("core: %s found no consistent cut in %d attempts", what, attempt+1)
		}
		select {
		case <-ctx.Done():
			return ScanAggregate{}, fmt.Errorf("core: %s: %w", what, ErrDeadlineExceeded)
		case <-time.After(scanBackoff):
		}
	}
}

// ScanCtx synchronously runs a filtered scan over an object, aggregating
// across all partitions; ctx as in LookupCtx. Index objects delegate to
// ScanRangeCtx over the full domain, so they share its exactness guarantee
// under active balancing.
func (e *Engine) ScanCtx(ctx context.Context, id routing.ObjectID, pred colstore.Predicate) (ScanAggregate, error) {
	if !e.started {
		return ScanAggregate{}, fmt.Errorf("core: Scan before Start")
	}
	meta := e.objects[id]
	if meta == nil {
		return ScanAggregate{}, fmt.Errorf("core: unknown object %d", id)
	}
	if meta.kind == routing.RangePartitioned {
		return e.ScanRangeCtx(ctx, id, 0, meta.domain-1, pred)
	}
	// The fan-out samples each AEU's partition at a different moment, so a
	// tail detached from one AEU after its reply and linked at another
	// before that one's reply is counted twice — or, parked in a mailbox,
	// not at all. Only a fan-out bracketed by two equal transfer stamps
	// with nothing in flight is trusted. The predicate's value bounds ride
	// the command (see colstore.SpecOf) for zone-map pruning.
	spec := colstore.SpecOf(pred)
	scan := command.Command{Op: command.OpScan, Object: uint32(id), Pred: pred, Keys: []uint64{spec.Lo, spec.Hi}}
	return retryScan(ctx, fmt.Sprintf("column scan of object %d", id), func() (ScanAggregate, bool, error) {
		gen1, inf1 := e.xferStamp(id)
		agg, _, err := e.scanOnce(ctx, scan, e.router.Holders(id, nil))
		gen2, inf2 := e.xferStamp(id)
		return agg, gen1 == gen2 && inf1 == 0 && inf2 == 0, err
	})
}

// xferStamp sums the transfer generation and in-flight payload count of id
// across all AEUs. Generations only ever grow, so two equal stamps with zero
// in flight at both readings prove no payload of id started, landed, or was
// afloat in between — the bracket column scans and checkpoints retry on.
func (e *Engine) xferStamp(id routing.ObjectID) (gen, inflight int64) {
	for _, a := range e.aeus {
		g, f := a.XferState(id)
		gen += g
		inflight += f
	}
	return gen, inflight
}

// multicast sends a copy of the scan command to every target and waits for
// one reply from each.
func (e *Engine) multicast(ctx context.Context, scan command.Command, targets []uint32) (*pendingOp, error) {
	cmds := make([]command.Command, len(targets))
	for i, owner := range targets {
		cmds[i] = scan
		cmds[i].Source = owner
	}
	return e.call(ctx, len(targets), 0, cmds)
}

// scanOnce runs one aggregate scan fan-out and sums the {matched, sum}
// heads of the replies. Index replies follow the head with the key
// interval they inspected; those are returned as cover.
func (e *Engine) scanOnce(ctx context.Context, scan command.Command, targets []uint32) (agg ScanAggregate, cover []prefixtree.KV, err error) {
	p, err := e.multicast(ctx, scan, targets)
	if err != nil {
		return agg, nil, err
	}
	for _, kvs := range p.replies {
		if len(kvs) == 0 {
			continue
		}
		agg.Matched += kvs[0].Key
		agg.Sum += kvs[0].Value
		cover = append(cover, kvs[1:]...)
	}
	return agg, cover, nil
}

// ScanRangeCtx synchronously scans an index object over [lo, hi]
// (inclusive), aggregating values matching pred; ctx as in LookupCtx. The
// result is exact even while the load balancer is moving partition bounds:
// every reply reports the key interval it actually inspected, and the scan
// is re-issued until the intervals tile the requested range exactly (no
// gap, no double count).
func (e *Engine) ScanRangeCtx(ctx context.Context, id routing.ObjectID, lo, hi uint64, pred colstore.Predicate) (ScanAggregate, error) {
	meta, err := e.index("ScanRange", id)
	if err != nil {
		return ScanAggregate{}, err
	}
	hi = min(hi, meta.domain-1)
	if lo > hi {
		return ScanAggregate{}, nil
	}
	scan := command.Command{Op: command.OpScan, Object: uint32(id), Pred: pred, Keys: []uint64{lo, hi}}
	return retryScan(ctx, fmt.Sprintf("range scan over [%d, %d]", lo, hi), func() (ScanAggregate, bool, error) {
		agg, cover, err := e.scanOnce(ctx, scan, e.rangeTargets(id))
		return agg, coversExactly(cover, lo, hi), err
	})
}

// coversExactly reports whether the intervals tile [lo, hi] with no gap
// and no overlap.
func coversExactly(ivs []prefixtree.KV, lo, hi uint64) bool {
	slices.SortFunc(ivs, compareKV)
	cur := lo
	for i, iv := range ivs {
		if iv.Key != cur || iv.Value > hi || iv.Value < iv.Key {
			return false
		}
		if iv.Value == hi {
			return i == len(ivs)-1
		}
		cur = iv.Value + 1
	}
	return false
}

// rangeTargets returns the deduplicated owner set of a range object.
func (e *Engine) rangeTargets(id routing.ObjectID) []uint32 {
	entries := e.router.OwnerEntries(id)
	targets := make([]uint32, 0, len(entries))
	seen := map[uint32]bool{}
	for _, en := range entries {
		if !seen[en.Owner] {
			targets = append(targets, en.Owner)
			seen[en.Owner] = true
		}
	}
	return targets
}

// ScanRangeRowsCtx materializes up to limit matching rows of an index range
// scan over [lo, hi] (inclusive), sorted by key — the query-processing
// primitive for intermediate results; ctx as in LookupCtx. Unlike the
// aggregate ScanRangeCtx, rows mode is best effort while a balancing step
// is in flight: rows of a range whose transfer has not landed yet may be
// missing from the result.
func (e *Engine) ScanRangeRowsCtx(ctx context.Context, id routing.ObjectID, lo, hi uint64, pred colstore.Predicate, limit int) ([]prefixtree.KV, error) {
	if _, err := e.index("ScanRangeRows", id); err != nil {
		return nil, err
	}
	if limit <= 0 {
		return nil, fmt.Errorf("core: ScanRangeRows needs a positive limit")
	}
	scan := command.Command{Op: command.OpScan, Object: uint32(id), Pred: pred, Keys: []uint64{lo, hi}, Limit: uint32(limit)}
	p, err := e.multicast(ctx, scan, e.rangeTargets(id))
	if err != nil {
		return nil, err
	}
	rows := flatten(p.replies)
	slices.SortFunc(rows, compareKV)
	if len(rows) > limit {
		rows = rows[:limit]
	}
	return rows, nil
}

func flatten(replies [][]prefixtree.KV) []prefixtree.KV {
	var n int
	for _, r := range replies {
		n += len(r)
	}
	out := make([]prefixtree.KV, 0, n)
	for _, r := range replies {
		out = append(out, r...)
	}
	return out
}

func (e *Engine) await(ctx context.Context, p *pendingOp, tag uint64) error {
	select {
	case <-p.done:
		return p.err
	case <-ctx.Done():
		e.cancelPending(tag)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("core: client request %d: %w", tag, ErrDeadlineExceeded)
		}
		return ctx.Err()
	}
}
