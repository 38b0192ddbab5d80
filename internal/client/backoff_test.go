package client

// Regression tests for the overload retry backoff: the pre-fix code
// computed `RetryBackoff << attempt` before clamping, so a raised
// OverloadRetries overflowed the shift into a negative wait that slipped
// under the clamp — a zero-backoff retry storm that also bypassed the
// deadline-crossing check.

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"eris/internal/metrics"
	"eris/internal/wire"
)

func TestBackoffLadder(t *testing.T) {
	const base = 500 * time.Microsecond
	want := []time.Duration{base, 2 * base, 4 * base, 8 * base, 16 * base, 16 * base}
	for attempt, w := range want {
		if got := backoffFor(base, attempt); got != w {
			t.Fatalf("backoffFor(%v, %d) = %v, want %v", base, attempt, got, w)
		}
	}
}

// TestBackoffNeverOverflows sweeps attempt counts far past the shift width
// and adversarial bases: every wait must stay positive, bounded by the
// cap, and monotone non-decreasing in the attempt.
func TestBackoffNeverOverflows(t *testing.T) {
	bases := []time.Duration{
		1, 500 * time.Microsecond, time.Second,
		1 << 40, 1 << 61, 1 << 62,
	}
	for _, base := range bases {
		cap := base * retryCapIntervals
		if cap < base {
			cap = base
		}
		prev := time.Duration(0)
		for attempt := 0; attempt <= 200; attempt++ {
			w := backoffFor(base, attempt)
			if w <= 0 {
				t.Fatalf("backoffFor(%v, %d) = %v, not positive", base, attempt, w)
			}
			if w > cap {
				t.Fatalf("backoffFor(%v, %d) = %v exceeds cap %v", base, attempt, w, cap)
			}
			if w < prev {
				t.Fatalf("backoffFor(%v, %d) = %v < previous %v, not monotone", base, attempt, w, prev)
			}
			prev = w
		}
	}
}

// overloadedServer is a minimal wire speaker that answers the handshake
// and then rejects every request with CodeOverloaded, so the client's
// retry loop can be driven for real without an engine.
func overloadedServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				var hello wire.Msg
				if _, err := wire.ReadMsgV(nc, &hello, nil, wire.Version); err != nil || hello.Type != wire.THello {
					return
				}
				welcome := wire.Msg{
					Type: wire.TWelcome, Magic: wire.Magic, Version: wire.Version,
					Objects: []wire.ObjectInfo{{ID: 1, Kind: wire.KindIndex, Domain: 1 << 16, Name: "kv"}},
				}
				frame, err := wire.AppendFrameV(nil, &welcome, wire.Version)
				if err != nil {
					return
				}
				if _, err := nc.Write(frame); err != nil {
					return
				}
				var buf []byte
				for {
					var m wire.Msg
					if buf, err = wire.ReadMsgV(nc, &m, buf, wire.Version); err != nil {
						return
					}
					rej := wire.Msg{Type: wire.TError, Tag: m.Tag, Code: wire.CodeOverloaded, Err: "overloaded"}
					out, err := wire.AppendFrameV(nil, &rej, wire.Version)
					if err != nil {
						return
					}
					if _, err := nc.Write(out); err != nil {
						return
					}
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// TestOverloadRetryStopsAtDeadline raises OverloadRetries far past the
// shift width against an always-overloaded server: the retry loop must
// keep backing off sanely and surface ErrDeadlineExceeded once the next
// wait would cross the shared deadline — never sleep negative, never spin,
// never outlive the caller's budget.
func TestOverloadRetryStopsAtDeadline(t *testing.T) {
	addr := overloadedServer(t)
	reg := metrics.NewRegistry()
	c, err := Dial(addr, Options{
		OverloadRetries: 1000,
		RetryBackoff:    2 * time.Millisecond,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.LookupCtx(ctx, 1, []uint64{42})
	elapsed := time.Since(start)
	if !errors.Is(err, wire.ErrDeadlineExceeded) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lookup under permanent overload = %v, want deadline error", err)
	}
	// The wait must never cross the shared deadline by more than the
	// scheduling slop of a single capped backoff interval.
	if elapsed > time.Second {
		t.Fatalf("retry loop outlived its deadline: %v elapsed for an 80ms budget", elapsed)
	}
	snap := reg.Snapshot()
	if snap.Counters["client.retries"] == 0 {
		t.Fatal("no overload retries recorded; the retry path was not exercised")
	}
}
