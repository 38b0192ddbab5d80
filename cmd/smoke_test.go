// Package cmd holds end-to-end smoke tests for the command-line tools:
// each binary is built from source and executed for real, and the
// erisserve/erisload pair is exercised over an actual TCP connection.
package cmd

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
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

func TestErisloadSmoke(t *testing.T) {
	out, err := exec.Command(tool(t, "erisload"),
		"-machine", "single", "-workers", "4", "-keys", "4096",
		"-dur", "0.0005", "-mix", "lookup").CombinedOutput()
	if err != nil {
		t.Fatalf("erisload: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "lookup workload over 4096 keys") ||
		!strings.Contains(string(out), "routing:") {
		t.Fatalf("erisload output missing report:\n%s", out)
	}
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

// TestErisserveRemoteSmoke boots erisserve on an ephemeral port, drives it
// with erisload -remote for each workload mix, shuts it down with SIGINT
// and checks the drain report.
func TestErisserveRemoteSmoke(t *testing.T) {
	srv := exec.Command(tool(t, "erisserve"),
		"-addr", "127.0.0.1:0", "-machine", "single", "-workers", "4",
		"-keys", "16384", "-balancer", "oneshot")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// First line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("erisserve printed nothing: %v", sc.Err())
	}
	line := sc.Text()
	addr, ok := strings.CutPrefix(line, "listening on ")
	if !ok {
		t.Fatalf("unexpected first line %q", line)
	}
	var rest strings.Builder
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
	}()

	for _, mix := range []string{"lookup", "upsert", "scan"} {
		out, err := exec.Command(tool(t, "erisload"),
			"-remote", addr, "-mix", mix, "-dur", "0.2", "-conns", "2", "-workers", "4").CombinedOutput()
		if err != nil {
			t.Fatalf("erisload -remote -mix %s: %v\n%s", mix, err, out)
		}
		if !strings.Contains(string(out), "remote "+addr) ||
			!strings.Contains(string(out), "0 errors, 0 connection errors") {
			t.Fatalf("erisload -remote -mix %s report:\n%s", mix, out)
		}
	}

	if err := srv.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	// Wait closes the stdout pipe, so the report is read to EOF (the
	// server exiting) first; otherwise its last lines can be lost.
	go func() { <-drained; werr <- srv.Wait() }()
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("erisserve exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("erisserve did not drain within 60s of SIGINT")
	}
	tail := rest.String()
	if !strings.Contains(tail, "draining...") || !strings.Contains(tail, "served 6 connections") {
		t.Fatalf("erisserve drain report:\n%s", tail)
	}
	if !strings.Contains(tail, "0 bad frames") {
		t.Fatalf("erisserve saw protocol errors:\n%s", tail)
	}
}

// TestErisloadCheckSmoke boots a balancing erisserve and drives it with
// the erisload -check mode: a concurrent mixed workload is recorded through
// the history harness and verified for linearizability offline. The run
// must end with a clean verdict — any violation makes erisload exit
// non-zero with a dump path.
func TestErisloadCheckSmoke(t *testing.T) {
	srv := exec.Command(tool(t, "erisserve"),
		"-addr", "127.0.0.1:0", "-machine", "single", "-workers", "4",
		"-keys", "16384", "-balancer", "oneshot")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("erisserve printed nothing: %v", sc.Err())
	}
	addr, ok := strings.CutPrefix(sc.Text(), "listening on ")
	if !ok {
		t.Fatalf("unexpected first line %q", sc.Text())
	}
	go func() {
		for sc.Scan() {
		}
	}()

	out, err := exec.Command(tool(t, "erisload"),
		"-remote", addr, "-mix", "mixed", "-check",
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
}

// TestErisserveOverloadSmoke boots erisserve with a tiny global admission
// budget and drives it with the erisload -overload scenario: shed requests
// must be tolerated and reported as a goodput/shed split rather than
// aborting the run, and the server's drain report must show the admission
// counters.
func TestErisserveOverloadSmoke(t *testing.T) {
	srv := exec.Command(tool(t, "erisserve"),
		"-addr", "127.0.0.1:0", "-machine", "single", "-workers", "4",
		"-keys", "16384", "-inflight", "2", "-deadline", "100ms")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("erisserve printed nothing: %v", sc.Err())
	}
	addr, ok := strings.CutPrefix(sc.Text(), "listening on ")
	if !ok {
		t.Fatalf("unexpected first line %q", sc.Text())
	}
	var rest strings.Builder
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
	}()

	out, err := exec.Command(tool(t, "erisload"),
		"-remote", addr, "-mix", "scan", "-dur", "0.3",
		"-conns", "2", "-workers", "16", "-overload", "-timeout", "3ms").CombinedOutput()
	if err != nil {
		t.Fatalf("erisload -overload: %v\n%s", err, out)
	}
	report := string(out)
	if !strings.Contains(report, "goodput") || !strings.Contains(report, "shed or expired") {
		t.Fatalf("erisload -overload report missing goodput/shed split:\n%s", report)
	}
	if !strings.Contains(report, "0 connection errors") {
		t.Fatalf("erisload -overload hit connection errors:\n%s", report)
	}

	if err := srv.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	// Wait closes the stdout pipe, so the report is read to EOF (the
	// server exiting) first; otherwise its last lines can be lost.
	go func() { <-drained; werr <- srv.Wait() }()
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("erisserve exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("erisserve did not drain within 60s of SIGINT")
	}
	if !strings.Contains(rest.String(), "admission: ") {
		t.Fatalf("erisserve drain report missing admission counters:\n%s", rest.String())
	}
}
