// Package cmd holds end-to-end smoke tests for the command-line tools:
// each binary is built from source and executed for real, and the
// erisserve/erisload pair is exercised over an actual TCP connection.
package cmd

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eris/internal/client"
	"eris/internal/colstore"
	"eris/internal/wire"
)

// buildTools compiles every cmd/ binary once per test run into a shared
// temp dir and returns its path.
var buildTools = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "eris-cmd-smoke")
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &exec.Error{Name: "go build ./cmd/...: " + string(out), Err: err}
	}
	return dir, nil
})

func tool(t *testing.T, name string) string {
	t.Helper()
	dir, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, name)
}

func TestEristopSmoke(t *testing.T) {
	out, err := exec.Command(tool(t, "eristop"),
		"-machine", "single", "-workers", "4", "-keys", "16384",
		"-dur", "0.002", "-balancer", "oneshot", "-refresh", "100ms").CombinedOutput()
	if err != nil {
		t.Fatalf("eristop: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "--- final") {
		t.Fatalf("eristop never printed its final frame:\n%s", out)
	}
}

// TestErisloadCheckSmoke boots a balancing erisserve and drives it with
// the erisload -check mode: a concurrent mixed workload is recorded through
// the history harness and verified for linearizability offline. The run
// must end with a clean verdict — any violation makes erisload exit
// non-zero with a dump path. SIGINT then drains the server, whose report
// must show the served connections, no bad frames and the admission
// counters.
func TestErisloadCheckSmoke(t *testing.T) {
	srv := startServe(t, "-keys", "16384", "-balancer", "oneshot")
	defer srv.Process.Kill()

	out, err := exec.Command(tool(t, "erisload"),
		"-remote", srv.addr, "-check",
		// A batch records ~114 events on average (64-key lookups and
		// upserts, 8-key deletes, two events per key), so four rings of
		// 196608 events hold a quarter second at up to ~27 K batch/s.
		"-dur", "0.25", "-checkring", "196608",
		"-conns", "2", "-workers", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("erisload -check: %v\n%s", err, out)
	}
	report := string(out)
	if !strings.Contains(report, "history check: linearizable") {
		t.Fatalf("erisload -check report missing clean verdict:\n%s", report)
	}
	if !strings.Contains(report, "(0 dropped)") {
		t.Fatalf("erisload -check overflowed its event rings (the history was checked only up to the first overflow):\n%s", report)
	}

	tail := srv.interrupt(t)
	for _, want := range []string{"draining...", "served 2 connections", "0 bad frames", "admission: "} {
		if !strings.Contains(tail, want) {
			t.Fatalf("erisserve drain report missing %q:\n%s", want, tail)
		}
	}
}

// TestErisserveRemoteSmoke boots erisserve on an ephemeral port, runs the
// erisload -ackfile workload against it and then -ackfile -verify against
// the same live server (every acknowledged write must read back), shuts it
// down with SIGINT and checks the drain report.
func TestErisserveRemoteSmoke(t *testing.T) {
	srv := startServe(t, "-keys", "16384", "-balancer", "oneshot")
	defer srv.Process.Kill()

	acks := filepath.Join(t.TempDir(), "acks.txt")
	out, err := exec.Command(tool(t, "erisload"),
		"-remote", srv.addr, "-ackfile", acks, "-dur", "0.2", "-conns", "2", "-workers", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("erisload -ackfile: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 connections dropped") {
		t.Fatalf("erisload -ackfile lost connections to a live server:\n%s", out)
	}
	out, err = exec.Command(tool(t, "erisload"),
		"-remote", srv.addr, "-ackfile", acks, "-verify", "-conns", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("erisload -ackfile -verify: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "acked writes survived") {
		t.Fatalf("erisload -verify report:\n%s", out)
	}

	tail := srv.interrupt(t)
	for _, want := range []string{"draining...", "served 4 connections", "0 bad frames"} {
		if !strings.Contains(tail, want) {
			t.Fatalf("erisserve drain report missing %q:\n%s", want, tail)
		}
	}
}

// TestErisserveOverloadSmoke boots erisserve with a tiny global admission
// budget and floods it with short-deadline range scans from more workers
// than the budget admits, with client retries off: shed and expired
// requests must come back as wire.ErrOverloaded or
// wire.ErrDeadlineExceeded without costing the connection, some work must
// still be served, and the drain report must show the admission counters.
func TestErisserveOverloadSmoke(t *testing.T) {
	srv := startServe(t, "-keys", "16384", "-inflight", "2", "-deadline", "100ms")
	defer srv.Process.Kill()

	pool, err := client.NewPool(srv.addr, 2, client.Options{OverloadRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	kv, ok := pool.Get().Object("kv")
	if !ok {
		t.Fatal("erisserve exports no \"kv\" index")
	}

	const workers = 16
	var good, shed atomic.Uint64
	end := time.Now().Add(300 * time.Millisecond)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := pool.Get()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for time.Now().Before(end) {
				lo := rng.Uint64() % kv.Domain
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
				_, err := c.ScanRangeCtx(ctx, kv.ID, lo, lo+999, colstore.Predicate{Op: colstore.All})
				cancel()
				switch {
				case err == nil:
					good.Add(1)
				case errors.Is(err, wire.ErrOverloaded) || errors.Is(err, wire.ErrDeadlineExceeded):
					shed.Add(1)
				default:
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("overload run: %v", err)
	}
	t.Logf("overload: %d scans served, %d shed or expired", good.Load(), shed.Load())
	if good.Load() == 0 {
		t.Fatal("overload run served no scan at all")
	}
	// Shedding must not have cost a connection: each one still answers.
	for i := 0; i < pool.Size(); i++ {
		if _, err := pool.Get().Lookup(kv.ID, []uint64{1}); err != nil {
			t.Fatalf("connection unusable after the overload run: %v", err)
		}
	}

	tail := srv.interrupt(t)
	if !strings.Contains(tail, "admission: ") {
		t.Fatalf("erisserve drain report missing admission counters:\n%s", tail)
	}
}
