package cmd

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// served is a running erisserve started by startServe.
type served struct {
	*exec.Cmd
	addr string
	tail strings.Builder // output after the listen line, complete once done is closed
	done chan struct{}
}

// startServe boots erisserve with the given extra flags (a repeated flag
// overrides the default) and waits for its announced listen address.
// Output after that line is collected in the background, so the server
// never blocks on a full pipe.
func startServe(t *testing.T, extra ...string) *served {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0", "-machine", "single", "-workers", "4",
		"-keys", "65536",
	}, extra...)
	srv := &served{Cmd: exec.Command(tool(t, "erisserve"), args...), done: make(chan struct{})}
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		// A restart prints its recovery report before the listen line.
		if a, ok := strings.CutPrefix(line, "listening on "); ok {
			srv.addr = a
			break
		}
		if !strings.HasPrefix(line, "recovered from ") && !strings.HasPrefix(line, "metrics:") {
			srv.Process.Kill()
			t.Fatalf("unexpected erisserve line %q", line)
		}
	}
	if srv.addr == "" {
		srv.Process.Kill()
		t.Fatalf("erisserve never announced its address: %v", sc.Err())
	}
	go func() {
		defer close(srv.done)
		for sc.Scan() {
			srv.tail.WriteString(sc.Text())
			srv.tail.WriteByte('\n')
		}
	}()
	return srv
}

// interrupt drains the server with SIGINT, checks it exits cleanly within
// a minute and returns its output after the listen line.
func (srv *served) interrupt(t *testing.T) string {
	t.Helper()
	if err := srv.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	// Wait closes the stdout pipe, so the output is read to EOF (the
	// server exiting) first; otherwise its last lines can be lost.
	go func() { <-srv.done; werr <- srv.Wait() }()
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("erisserve exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("erisserve did not drain within 60s of SIGINT")
	}
	return srv.tail.String()
}

// TestErisserveKillDashNine is the end-to-end crash smoke: a -datadir
// -syncwrites erisserve takes an acked write workload, dies by SIGKILL
// mid-run (no drain, no final checkpoint — the workload sees its
// connections drop), restarts on the same directory, and every write that
// was acknowledged over the wire must still be there.
func TestErisserveKillDashNine(t *testing.T) {
	dataDir := t.TempDir()
	ackFile := filepath.Join(t.TempDir(), "acks.txt")

	srv := startServe(t, "-datadir", dataDir, "-syncwrites", "-checkpoint", "50ms", "-preload", "0")

	// The workload runs for 4s but the server dies after ~1s of it; the
	// load tool tolerates the dropped connections and dumps what was acked.
	load := exec.Command(tool(t, "erisload"),
		"-remote", srv.addr, "-ackfile", ackFile, "-dur", "4", "-conns", "2", "-workers", "4")
	loadOut := &strings.Builder{}
	load.Stdout, load.Stderr = loadOut, loadOut
	if err := load.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1 * time.Second)
	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	if err := load.Wait(); err != nil {
		t.Fatalf("erisload -ackfile: %v\n%s", err, loadOut)
	}
	if !strings.Contains(loadOut.String(), "keys recorded") {
		t.Fatalf("erisload ack report:\n%s", loadOut)
	}
	info, err := os.Stat(ackFile)
	if err != nil || info.Size() == 0 {
		t.Fatalf("ackfile empty or missing (err %v): the server died before anything was acked; output:\n%s", err, loadOut)
	}

	// Restart on the crashed directory and verify no acked write was lost.
	srv2 := startServe(t, "-datadir", dataDir, "-syncwrites")
	defer srv2.Process.Kill()
	out, err := exec.Command(tool(t, "erisload"),
		"-remote", srv2.addr, "-ackfile", ackFile, "-verify").CombinedOutput()
	if err != nil {
		t.Fatalf("erisload -verify: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "acked writes survived") {
		t.Fatalf("verify report:\n%s", out)
	}

	// Clean shutdown of the restarted server must also succeed (its drain
	// checkpoint runs against the recovered state).
	srv2.interrupt(t)
}
