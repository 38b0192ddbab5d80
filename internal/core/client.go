package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
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
	want    int
	got     int
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
		p.replies = append(p.replies, append([]prefixtree.KV(nil), kvs...))
	}
	p.got += answered
	if p.got >= p.want {
		delete(e.pending, tag)
		close(p.done)
	}
}

func (e *Engine) newPending(want int) (uint64, *pendingOp, error) {
	e.clientMu.Lock()
	defer e.clientMu.Unlock()
	if e.clientClosed {
		return 0, nil, ErrClosed
	}
	e.nextTag++
	p := &pendingOp{want: want, done: make(chan struct{})}
	e.pending[e.nextTag] = p
	return e.nextTag, p, nil
}

func (e *Engine) cancelPending(tag uint64) {
	e.clientMu.Lock()
	defer e.clientMu.Unlock()
	delete(e.pending, tag)
}

// failPending fails every in-flight synchronous call with ErrClosed and
// refuses new ones; Stop calls it before taking the AEU loops down.
func (e *Engine) failPending() {
	e.clientMu.Lock()
	defer e.clientMu.Unlock()
	e.clientClosed = true
	for tag, p := range e.pending {
		p.err = ErrClosed
		close(p.done)
		delete(e.pending, tag)
	}
}

// clientTimeout bounds synchronous client calls; the engine is in-process,
// so a stall means a bug, not a slow network.
const clientTimeout = 30 * time.Second

// deadlineOf returns ctx's deadline as absolute unix nanoseconds for
// command headers; zero when ctx has none.
func deadlineOf(ctx context.Context) uint64 {
	if d, ok := ctx.Deadline(); ok {
		return uint64(d.UnixNano())
	}
	return 0
}

// Lookup synchronously looks up keys in an index object and returns the
// found pairs. The engine must be started.
func (e *Engine) Lookup(id routing.ObjectID, keys []uint64) ([]prefixtree.KV, error) {
	return e.LookupCtx(context.Background(), id, keys)
}

// LookupCtx is Lookup bounded by ctx: its deadline rides the issued
// commands (so the AEUs can expire deferred work) and cancels the wait.
func (e *Engine) LookupCtx(ctx context.Context, id routing.ObjectID, keys []uint64) ([]prefixtree.KV, error) {
	if !e.started {
		return nil, fmt.Errorf("core: Lookup before Start")
	}
	meta := e.objects[id]
	if meta == nil || meta.kind != routing.RangePartitioned {
		return nil, fmt.Errorf("core: object %d is not an index", id)
	}
	// Split by owner (the client does its own routing-table lookup).
	byOwner := make(map[uint32][]uint64)
	for _, k := range keys {
		if k >= meta.domain {
			return nil, fmt.Errorf("core: key %d outside domain %d", k, meta.domain)
		}
		o := e.router.Owner(id, k)
		byOwner[o] = append(byOwner[o], k)
	}
	if len(byOwner) == 0 {
		return nil, nil
	}
	tag, p, err := e.newPending(len(keys))
	if err != nil {
		return nil, err
	}
	for owner, ks := range byOwner {
		e.router.Inject(owner, &command.Command{
			Op: command.OpLookup, Object: uint32(id), Source: owner,
			ReplyTo: aeu.ClientReply, Tag: tag, Keys: ks, Deadline: deadlineOf(ctx),
		})
	}
	if err := e.await(ctx, p, tag); err != nil {
		return nil, err
	}
	out := flatten(p.replies)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Upsert synchronously inserts or overwrites pairs in an index object.
func (e *Engine) Upsert(id routing.ObjectID, kvs []prefixtree.KV) error {
	return e.UpsertCtx(context.Background(), id, kvs)
}

// UpsertCtx is Upsert bounded by ctx; see LookupCtx.
func (e *Engine) UpsertCtx(ctx context.Context, id routing.ObjectID, kvs []prefixtree.KV) error {
	if !e.started {
		return fmt.Errorf("core: Upsert before Start")
	}
	meta := e.objects[id]
	if meta == nil || meta.kind != routing.RangePartitioned {
		return fmt.Errorf("core: object %d is not an index", id)
	}
	byOwner := make(map[uint32][]prefixtree.KV)
	for _, kv := range kvs {
		if kv.Key >= meta.domain {
			return fmt.Errorf("core: key %d outside domain %d", kv.Key, meta.domain)
		}
		o := e.router.Owner(id, kv.Key)
		byOwner[o] = append(byOwner[o], kv)
	}
	if len(byOwner) == 0 {
		return nil
	}
	tag, p, err := e.newPending(len(kvs))
	if err != nil {
		return err
	}
	for owner, part := range byOwner {
		e.router.Inject(owner, &command.Command{
			Op: command.OpUpsert, Object: uint32(id), Source: owner,
			ReplyTo: aeu.ClientReply, Tag: tag, KVs: part, Deadline: deadlineOf(ctx),
		})
	}
	return e.await(ctx, p, tag)
}

// Delete synchronously removes keys from an index object; keys that are
// not present are ignored.
func (e *Engine) Delete(id routing.ObjectID, keys []uint64) error {
	return e.DeleteCtx(context.Background(), id, keys)
}

// DeleteCtx is Delete bounded by ctx; see LookupCtx.
func (e *Engine) DeleteCtx(ctx context.Context, id routing.ObjectID, keys []uint64) error {
	if !e.started {
		return fmt.Errorf("core: Delete before Start")
	}
	meta := e.objects[id]
	if meta == nil || meta.kind != routing.RangePartitioned {
		return fmt.Errorf("core: object %d is not an index", id)
	}
	byOwner := make(map[uint32][]uint64)
	for _, k := range keys {
		if k >= meta.domain {
			return fmt.Errorf("core: key %d outside domain %d", k, meta.domain)
		}
		o := e.router.Owner(id, k)
		byOwner[o] = append(byOwner[o], k)
	}
	if len(byOwner) == 0 {
		return nil
	}
	tag, p, err := e.newPending(len(keys))
	if err != nil {
		return err
	}
	for owner, ks := range byOwner {
		e.router.Inject(owner, &command.Command{
			Op: command.OpDelete, Object: uint32(id), Source: owner,
			ReplyTo: aeu.ClientReply, Tag: tag, Keys: ks, Deadline: deadlineOf(ctx),
		})
	}
	return e.await(ctx, p, tag)
}

// ScanAggregate is the result of a synchronous scan: how many values
// matched the predicate and their (wrapping) sum.
type ScanAggregate struct {
	Matched uint64
	Sum     uint64
}

// Scan synchronously runs a filtered scan over an object, aggregating
// across all partitions. Index objects delegate to ScanRange over the full
// domain, so they share its exactness guarantee under active balancing.
func (e *Engine) Scan(id routing.ObjectID, pred colstore.Predicate) (ScanAggregate, error) {
	return e.ScanCtx(context.Background(), id, pred)
}

// colScanRetries bounds how often a column scan re-runs its fan-out when
// rebalancing overlapped it; bursts of balance cycles are short, so a
// handful of retries normally finds a quiet window well before the
// context deadline does.
const colScanRetries = 32

// ScanCtx is Scan bounded by ctx; see LookupCtx.
func (e *Engine) ScanCtx(ctx context.Context, id routing.ObjectID, pred colstore.Predicate) (ScanAggregate, error) {
	var agg ScanAggregate
	if !e.started {
		return agg, fmt.Errorf("core: Scan before Start")
	}
	meta := e.objects[id]
	if meta == nil {
		return agg, fmt.Errorf("core: unknown object %d", id)
	}
	if meta.kind == routing.RangePartitioned {
		return e.ScanRangeCtx(ctx, id, 0, meta.domain-1, pred)
	}
	// The fan-out samples each AEU's partition at a different moment, so a
	// tail detached from one AEU after its reply and linked at another
	// before that one's reply is counted twice — or, parked in a mailbox,
	// not at all. Bracket the fan-out with transfer-state stamps and retry
	// until a scan saw a quiet window.
	for attempt := 0; ; attempt++ {
		gen1, inf1 := e.xferStamp(id)
		once, err := e.scanColumnOnce(ctx, id, pred)
		if err != nil {
			return agg, err
		}
		gen2, inf2 := e.xferStamp(id)
		if (gen1 == gen2 && inf1 == 0 && inf2 == 0) || attempt >= colScanRetries || ctx.Err() != nil {
			return once, nil
		}
	}
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

// scanColumnOnce runs one column-scan fan-out over the current holders and
// aggregates the replies.
func (e *Engine) scanColumnOnce(ctx context.Context, id routing.ObjectID, pred colstore.Predicate) (ScanAggregate, error) {
	var agg ScanAggregate
	targets := e.router.Holders(id, nil)
	if len(targets) == 0 {
		return agg, nil
	}
	tag, p, err := e.newPending(len(targets))
	if err != nil {
		return agg, err
	}
	vlo, vhi, vok := pred.Bounds()
	if !vok {
		vlo, vhi = 1, 0
	}
	for _, owner := range targets {
		e.router.Inject(owner, &command.Command{
			Op: command.OpScan, Object: uint32(id), Source: owner,
			ReplyTo: aeu.ClientReply, Tag: tag, Pred: pred,
			Keys: []uint64{vlo, vhi}, Deadline: deadlineOf(ctx),
		})
	}
	if err := e.await(ctx, p, tag); err != nil {
		return agg, err
	}
	for _, kvs := range p.replies {
		if len(kvs) > 0 {
			agg.Matched += kvs[0].Key
			agg.Sum += kvs[0].Value
		}
	}
	return agg, nil
}

// Scan cover retries: how often a range scan whose replies left a gap in
// (or overlapped) the requested range is re-issued before giving up, and
// the pause between attempts. Gaps are transient — they close as soon as
// the in-flight balancing step lands — so the backoff is short.
const (
	scanCoverRetries = 64
	scanCoverBackoff = 200 * time.Microsecond
)

// ScanRange synchronously scans an index object over [lo, hi] (inclusive),
// aggregating values matching pred. The result is exact even while the
// load balancer is moving partition bounds: every reply reports the key
// interval it actually inspected, and the scan is re-issued until the
// intervals tile the requested range exactly (no gap, no double count).
func (e *Engine) ScanRange(id routing.ObjectID, lo, hi uint64, pred colstore.Predicate) (ScanAggregate, error) {
	return e.ScanRangeCtx(context.Background(), id, lo, hi, pred)
}

// ScanRangeCtx is ScanRange bounded by ctx; see LookupCtx. The cover-retry
// loop also stops at the deadline instead of burning its full retry budget.
func (e *Engine) ScanRangeCtx(ctx context.Context, id routing.ObjectID, lo, hi uint64, pred colstore.Predicate) (ScanAggregate, error) {
	var agg ScanAggregate
	if !e.started {
		return agg, fmt.Errorf("core: ScanRange before Start")
	}
	meta := e.objects[id]
	if meta == nil || meta.kind != routing.RangePartitioned {
		return agg, fmt.Errorf("core: object %d is not an index", id)
	}
	if hi > meta.domain-1 {
		hi = meta.domain - 1
	}
	if lo > hi {
		return agg, nil
	}
	for attempt := 0; ; attempt++ {
		agg, covered, err := e.scanRangeOnce(ctx, id, lo, hi, pred)
		if err != nil || covered {
			return agg, err
		}
		if attempt >= scanCoverRetries {
			return agg, fmt.Errorf("core: range scan over [%d, %d] found no consistent cover in %d attempts", lo, hi, attempt+1)
		}
		select {
		case <-ctx.Done():
			return agg, fmt.Errorf("core: range scan over [%d, %d]: %w", lo, hi, ErrDeadlineExceeded)
		case <-time.After(scanCoverBackoff):
		}
	}
}

// scanRangeOnce issues one multicast range scan and reports whether the
// reply coverage tiled [lo, hi] exactly; only then is agg trustworthy.
func (e *Engine) scanRangeOnce(ctx context.Context, id routing.ObjectID, lo, hi uint64, pred colstore.Predicate) (ScanAggregate, bool, error) {
	var agg ScanAggregate
	targets := e.rangeTargets(id)
	if len(targets) == 0 {
		return agg, false, nil
	}
	tag, p, err := e.newPending(len(targets))
	if err != nil {
		return agg, false, err
	}
	for _, owner := range targets {
		e.router.Inject(owner, &command.Command{
			Op: command.OpScan, Object: uint32(id), Source: owner,
			ReplyTo: aeu.ClientReply, Tag: tag, Pred: pred, Keys: []uint64{lo, hi},
			Deadline: deadlineOf(ctx),
		})
	}
	if err := e.await(ctx, p, tag); err != nil {
		return agg, false, err
	}
	var cover []prefixtree.KV // Key=lo, Value=hi of one inspected interval
	for _, kvs := range p.replies {
		if len(kvs) == 0 {
			continue
		}
		agg.Matched += kvs[0].Key
		agg.Sum += kvs[0].Value
		cover = append(cover, kvs[1:]...)
	}
	return agg, coversExactly(cover, lo, hi), nil
}

// coversExactly reports whether the intervals tile [lo, hi] with no gap
// and no overlap.
func coversExactly(ivs []prefixtree.KV, lo, hi uint64) bool {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Key < ivs[j].Key })
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

// ScanRangeRows materializes up to limit matching rows of an index range
// scan over [lo, hi] (inclusive), sorted by key — the query-processing
// primitive for intermediate results. Unlike the aggregate ScanRange, rows
// mode is best effort while a balancing step is in flight: rows of a range
// whose transfer has not landed yet may be missing from the result.
func (e *Engine) ScanRangeRows(id routing.ObjectID, lo, hi uint64, pred colstore.Predicate, limit int) ([]prefixtree.KV, error) {
	return e.ScanRangeRowsCtx(context.Background(), id, lo, hi, pred, limit)
}

// ScanRangeRowsCtx is ScanRangeRows bounded by ctx; see LookupCtx.
func (e *Engine) ScanRangeRowsCtx(ctx context.Context, id routing.ObjectID, lo, hi uint64, pred colstore.Predicate, limit int) ([]prefixtree.KV, error) {
	if !e.started {
		return nil, fmt.Errorf("core: ScanRangeRows before Start")
	}
	if limit <= 0 {
		return nil, fmt.Errorf("core: ScanRangeRows needs a positive limit")
	}
	meta := e.objects[id]
	if meta == nil || meta.kind != routing.RangePartitioned {
		return nil, fmt.Errorf("core: object %d is not an index", id)
	}
	targets := e.rangeTargets(id)
	if len(targets) == 0 {
		return nil, nil
	}
	tag, p, err := e.newPending(len(targets))
	if err != nil {
		return nil, err
	}
	for _, owner := range targets {
		e.router.Inject(owner, &command.Command{
			Op: command.OpScan, Object: uint32(id), Source: owner,
			ReplyTo: aeu.ClientReply, Tag: tag, Pred: pred,
			Keys: []uint64{lo, hi}, Limit: uint32(limit), Deadline: deadlineOf(ctx),
		})
	}
	if err := e.await(ctx, p, tag); err != nil {
		return nil, err
	}
	rows := flatten(p.replies)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
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
	case <-time.After(clientTimeout):
		e.cancelPending(tag)
		return fmt.Errorf("core: client request %d timed out", tag)
	}
}
