// Package history records per-client operation histories — invocation and
// response events with monotonic timestamps — for offline linearizability
// checking by internal/histcheck. It wraps both the in-process core client
// API (CoreClient) and the eriswire client (WireClient), so the same
// checker validates local chaos runs and remote workloads.
//
// The recorder follows the hot-path allocation contract: each client's log
// is a preallocated fixed-capacity ring that refuses to wrap — overwriting
// the oldest events would destroy the invoke/response pairing the checker
// depends on, so overflow drops *new* events and counts them instead.
// Appends are plain slice writes into the preallocated backing array: zero
// steady-state allocations, single-goroutine per ClientLog (one log per
// worker, like one connection per worker).
package history

import (
	"sort"
	"time"

	"eris/internal/colstore"
	"eris/internal/prefixtree"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// Invoke opens an operation; its response (if any) shares the Seq.
	Invoke Kind = iota
	// ReturnOK closes an operation that definitely took effect.
	ReturnOK
	// ReturnErr closes an operation that definitely did NOT take effect
	// (validation failure, shed before execution). The checker drops the
	// pair entirely.
	ReturnErr
	// ReturnLost closes an operation with an unknown outcome (timeout,
	// connection loss): a lost write may take effect at any later point,
	// or never. The checker treats it as open-ended.
	ReturnLost
)

// Op identifies the recorded operation.
type Op uint8

// Recorded operations.
const (
	// OpLookup is a point read of one key.
	OpLookup Op = iota
	// OpUpsert writes Key = Val.
	OpUpsert
	// OpDelete removes Key.
	OpDelete
	// OpScanRange is an index range-scan aggregate over [Key, Key2].
	OpScanRange
	// OpColScan is a column-scan aggregate (no key range).
	OpColScan
)

// Event is one history record. It is a single flat fixed-size struct so a
// ClientLog is one contiguous allocation and violation dumps serialize
// without reflection surprises.
type Event struct {
	// T is monotonic nanoseconds since the Recorder's base.
	T int64
	// Client is the owning ClientLog's id.
	Client uint16
	// Seq pairs an invocation with its response within one client.
	Seq  uint32
	Kind Kind
	Op   Op

	// Key is the point-op key, or the scan range low bound.
	Key uint64
	// Key2 is the scan range high bound.
	Key2 uint64
	// Val is the written value on a write invoke, the observed value on a
	// lookup response, and the matched count on a scan response.
	Val uint64
	// Val2 is the observed sum on a scan response.
	Val2 uint64
	// Pred is the scan predicate (scan invokes only).
	Pred colstore.Predicate
	// Found reports presence on a lookup response.
	Found bool
}

// ClientLog is one client's event log. It is single-goroutine: each
// worker records into its own log, and the checker reads only after the
// workload quiesced.
type ClientLog struct {
	id      uint16
	rec     *Recorder
	events  []Event
	dropped int64
	// overflowAt is the timestamp of the first dropped event: everything
	// this client did strictly before it is in events, nothing at or after
	// it can be relied on.
	overflowAt int64
	nextSeq    uint32
}

// Recorder owns a fixed set of client logs sharing one monotonic base.
type Recorder struct {
	base    time.Time
	clients []*ClientLog
}

// New creates a recorder with one log per client, each preallocated to
// hold perClientEvents events.
func New(clients, perClientEvents int) *Recorder {
	r := &Recorder{base: time.Now()}
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, &ClientLog{
			id:     uint16(i),
			rec:    r,
			events: make([]Event, 0, perClientEvents),
		})
	}
	return r
}

// Client returns log i.
func (r *Recorder) Client(i int) *ClientLog { return r.clients[i] }

// Now returns monotonic nanoseconds since the recorder's base.
func (r *Recorder) Now() int64 { return int64(time.Since(r.base)) }

// Events flattens every client's log into one slice (checking is offline;
// this allocates).
func (r *Recorder) Events() []Event {
	var out []Event
	for _, l := range r.clients {
		out = append(out, l.events...)
	}
	return out
}

// Len is the total number of recorded events.
func (r *Recorder) Len() int {
	n := 0
	for _, l := range r.clients {
		n += len(l.events)
	}
	return n
}

// Dropped is the total number of events lost to log overflow. The events
// that were recorded after a drop are NOT a sound history on their own: a
// dropped write makes a later recorded read of its value unexplainable, and
// the checker would report a violation that never happened. Check them only
// up to OverflowAt (histcheck.Check does), and size the logs to keep this
// zero.
func (r *Recorder) Dropped() int64 {
	n := int64(0)
	for _, l := range r.clients {
		n += l.dropped
	}
	return n
}

// OverflowAt returns the earliest instant at which any log dropped an event
// (ok is false when none did). Every log is complete strictly before it:
// each client appends in time order, so a log's events older than its own
// first drop were all recorded.
func (r *Recorder) OverflowAt() (t int64, ok bool) {
	for _, l := range r.clients {
		if l.dropped > 0 && (!ok || l.overflowAt < t) {
			t, ok = l.overflowAt, true
		}
	}
	return t, ok
}

// append records e, dropping it (counted) when the log is full. Capacity
// is fixed at construction: steady-state appends never allocate.
func (l *ClientLog) append(e Event) {
	if len(l.events) == cap(l.events) {
		if l.dropped == 0 {
			l.overflowAt = e.T
		}
		l.dropped++
		return
	}
	l.events = append(l.events, e)
}

// Events returns the recorded events.
func (l *ClientLog) Events() []Event { return l.events }

// Dropped is the number of events lost to overflow on this log.
func (l *ClientLog) Dropped() int64 { return l.dropped }

// InvokeKey records the invocation of a point op at the current time and
// returns its seq. val is the written value (writes) and ignored for
// lookups and deletes.
func (l *ClientLog) InvokeKey(op Op, key, val uint64) uint32 {
	return l.invokeKeyAt(l.rec.Now(), op, key, val)
}

func (l *ClientLog) invokeKeyAt(t int64, op Op, key, val uint64) uint32 {
	l.nextSeq++
	l.append(Event{T: t, Client: l.id, Seq: l.nextSeq, Kind: Invoke, Op: op, Key: key, Val: val})
	return l.nextSeq
}

// InvokeScan records a scan invocation ([lo,hi] is ignored for OpColScan).
func (l *ClientLog) InvokeScan(op Op, lo, hi uint64, pred colstore.Predicate) uint32 {
	return l.invokeScanAt(l.rec.Now(), op, lo, hi, pred)
}

func (l *ClientLog) invokeScanAt(t int64, op Op, lo, hi uint64, pred colstore.Predicate) uint32 {
	l.nextSeq++
	l.append(Event{T: t, Client: l.id, Seq: l.nextSeq, Kind: Invoke, Op: op, Key: lo, Key2: hi, Pred: pred})
	return l.nextSeq
}

// ReturnRead closes a lookup with its observed result.
func (l *ClientLog) ReturnRead(seq uint32, found bool, val uint64) {
	l.returnReadAt(l.rec.Now(), seq, found, val)
}

func (l *ClientLog) returnReadAt(t int64, seq uint32, found bool, val uint64) {
	l.append(Event{T: t, Client: l.id, Seq: seq, Kind: ReturnOK, Op: OpLookup, Val: val, Found: found})
}

// ReturnWrite closes an acked upsert/delete.
func (l *ClientLog) ReturnWrite(seq uint32, op Op) {
	l.returnAt(l.rec.Now(), seq, op, ReturnOK)
}

// ReturnAgg closes a scan with its observed aggregate.
func (l *ClientLog) ReturnAgg(seq uint32, op Op, matched, sum uint64) {
	l.returnAggAt(l.rec.Now(), seq, op, matched, sum)
}

func (l *ClientLog) returnAggAt(t int64, seq uint32, op Op, matched, sum uint64) {
	l.append(Event{T: t, Client: l.id, Seq: seq, Kind: ReturnOK, Op: op, Val: matched, Val2: sum})
}

// ReturnErr closes an operation that definitely did not take effect.
func (l *ClientLog) ReturnErr(seq uint32, op Op) {
	l.returnAt(l.rec.Now(), seq, op, ReturnErr)
}

// ReturnLost closes an operation whose outcome is unknown.
func (l *ClientLog) ReturnLost(seq uint32, op Op) {
	l.returnAt(l.rec.Now(), seq, op, ReturnLost)
}

func (l *ClientLog) returnAt(t int64, seq uint32, op Op, kind Kind) {
	l.append(Event{T: t, Client: l.id, Seq: seq, Kind: kind, Op: op})
}

// findKV locates key in a key-sorted lookup result; falls back to a
// linear scan if the result turns out unsorted (it never should).
func findKV(kvs []prefixtree.KV, key uint64) (uint64, bool) {
	i := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= key })
	if i < len(kvs) && kvs[i].Key == key {
		return kvs[i].Value, true
	}
	for _, kv := range kvs {
		if kv.Key == key {
			return kv.Value, true
		}
	}
	return 0, false
}
