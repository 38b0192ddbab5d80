package server

// Regression tests for deadline handling in the admission controller: a
// request's deadline must be honored not just on arrival but also after it
// acquires a slot — the wait (or even just the scheduler) can carry it past
// the deadline, and executing it then only wastes engine work.

import (
	"errors"
	"testing"
	"time"

	"eris/internal/metrics"
	"eris/internal/wire"
)

// TestAdmitRechecksDeadlineAfterGrant hands the admitter a request whose
// deadline was valid at arrival time but has since passed (a stalled
// reader between arrival stamping and admission). The fast path used to
// admit it without re-checking; it must be rejected as expired, and the
// slot must be returned.
func TestAdmitRechecksDeadlineAfterGrant(t *testing.T) {
	a := newAdmitter(metrics.NewRegistry(), 1)
	arrival := time.Now().Add(-20 * time.Millisecond)
	deadline := arrival.Add(10 * time.Millisecond) // unexpired at arrival, passed now

	err := a.admit(arrival, deadline, nil)
	if !errors.Is(err, wire.ErrDeadlineExceeded) {
		t.Fatalf("admit past deadline = %v, want ErrDeadlineExceeded", err)
	}
	if n := a.expired.Load(); n != 1 {
		t.Fatalf("expired counter = %d, want 1", n)
	}
	if n := a.admitted.Load(); n != 0 {
		t.Fatalf("admitted counter = %d, want 0", n)
	}

	// The rejected request must have returned its slot.
	if err := a.admit(time.Now(), time.Time{}, nil); err != nil {
		t.Fatalf("slot leaked by expired request: %v", err)
	}
	a.release(time.Millisecond)
}

// TestAdmitWaiterExpiredBeforeGrant races a queued waiter's expiry timer
// against a freed slot: both channel cases are ready, and the select picks
// arbitrarily. Whichever way it goes, an expired waiter must never be
// admitted, and the slot must survive.
func TestAdmitWaiterExpiredBeforeGrant(t *testing.T) {
	a := newAdmitter(metrics.NewRegistry(), 1)
	for i := 0; i < 25; i++ {
		if err := a.admit(time.Now(), time.Time{}, nil); err != nil {
			t.Fatalf("iter %d: take slot: %v", i, err)
		}
		deadline := time.Now().Add(5 * time.Millisecond)
		done := make(chan error, 1)
		go func() { done <- a.admit(time.Now(), deadline, nil) }()
		time.Sleep(15 * time.Millisecond) // the waiter's deadline passes while queued
		a.release(time.Millisecond)       // now the slot and the expiry are both ready
		if err := <-done; !errors.Is(err, wire.ErrDeadlineExceeded) {
			t.Fatalf("iter %d: expired waiter admitted: %v", i, err)
		}
		// Whichever select case won, the slot must be back.
		if err := a.admit(time.Now(), time.Time{}, nil); err != nil {
			t.Fatalf("iter %d: slot lost: %v", i, err)
		}
		a.release(time.Millisecond)
	}
}
