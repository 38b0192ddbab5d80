package server

import (
	"sync/atomic"
	"time"

	"eris/internal/metrics"
	"eris/internal/wire"
)

// admitter is the server-global admission controller: a fixed budget of
// execution slots shared by every connection, with a wait queue as deep as
// the budget in front of it. A request that cannot get a slot immediately
// either waits (bounded by the queue capacity and its deadline) or is shed
// with wire.ErrOverloaded — the server degrades by rejecting fast, never by
// queueing without bound.
//
// Shedding is deadline-aware: a request that would have to wait, whose
// remaining deadline is below the EWMA of recent service times, is
// rejected immediately — it would expire mid-queue anyway, so executing
// it only steals capacity from requests that can still make it.
type admitter struct {
	slots    chan struct{}
	queueCap int32
	waiting  atomic.Int32
	// ewmaNS tracks recent request service time (execution only, not queue
	// wait), nanoseconds, updated as new = old + (sample-old)/8.
	ewmaNS atomic.Int64

	admitted *metrics.Counter // requests that got a slot
	shed     *metrics.Counter // rejected with ErrOverloaded
	expired  *metrics.Counter // rejected/abandoned on their deadline
}

func newAdmitter(reg *metrics.Registry, slots int) *admitter {
	a := &admitter{
		slots:    make(chan struct{}, slots),
		queueCap: int32(slots),
		admitted: reg.Counter("server.admitted"),
		shed:     reg.Counter("server.shed"),
		expired:  reg.Counter("server.expired"),
	}
	for i := 0; i < slots; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// admit blocks until the request may execute, it is shed, or it expires.
// deadline is zero for requests without one; aborted unblocks waiters of a
// dying connection. A nil error means a slot is held and release must be
// called when execution finishes.
func (a *admitter) admit(now time.Time, deadline time.Time, aborted <-chan struct{}) error {
	if !deadline.IsZero() && !now.Before(deadline) {
		// Expired on arrival (slow network, stalled reader): never execute.
		a.expired.Inc()
		return wire.ErrDeadlineExceeded
	}
	select {
	case <-a.slots:
		// Fast path: capacity is free, no shedding decision to make.
		if a.expireHolding(deadline) {
			return wire.ErrDeadlineExceeded
		}
		a.admitted.Inc()
		return nil
	default:
	}
	// The request must wait. Shed it right away when it is unlikely to get
	// its answer in time, or when the wait queue is at capacity.
	if !deadline.IsZero() {
		if ewma := a.ewmaNS.Load(); ewma > 0 && deadline.Sub(now) < time.Duration(ewma) {
			a.shed.Inc()
			return wire.ErrOverloaded
		}
	}
	if a.waiting.Add(1) > a.queueCap {
		a.waiting.Add(-1)
		a.shed.Inc()
		return wire.ErrOverloaded
	}
	defer a.waiting.Add(-1)

	var expire <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-a.slots:
		// The slot and the expiry can race: a waiter whose deadline passed
		// while queued may still win the slot (the select picks arbitrarily
		// among ready cases). Re-check before executing — a request that
		// waited past its deadline only wastes engine work on an answer
		// nobody reads.
		if a.expireHolding(deadline) {
			return wire.ErrDeadlineExceeded
		}
		a.admitted.Inc()
		return nil
	case <-expire:
		a.expired.Inc()
		return wire.ErrDeadlineExceeded
	case <-aborted:
		// The connection died while queued; the caller discards the reply
		// anyway, so classify as shed, not expired.
		a.shed.Inc()
		return wire.ErrOverloaded
	}
}

// expireHolding re-checks the deadline while a slot is held: true means the
// deadline passed, the slot was returned and the caller must reject the
// request with wire.ErrDeadlineExceeded instead of executing it.
func (a *admitter) expireHolding(deadline time.Time) bool {
	if deadline.IsZero() || time.Now().Before(deadline) {
		return false
	}
	a.slots <- struct{}{}
	a.expired.Inc()
	return true
}

// release returns the slot and feeds the request's execution time into the
// service-time EWMA the shedding decision uses.
func (a *admitter) release(serviceTime time.Duration) {
	sample := serviceTime.Nanoseconds()
	for {
		old := a.ewmaNS.Load()
		next := old + (sample-old)/8
		if old == 0 {
			next = sample
		}
		if a.ewmaNS.CompareAndSwap(old, next) {
			break
		}
	}
	a.slots <- struct{}{}
}
