package durable

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// malformedNames look like log or checkpoint files but are not, and must be
// ignored by every directory scan.
var malformedNames = []string{
	"wal-1.log", "wal-a-2.log", "wal-1-2.log.tmp", "wal-1-2-3.log", "wal--1-2.log",
	"checkpoint-x.ckpt", "checkpoint-.ckpt", "checkpoint-3.ckpt.tmp", "MANIFEST.tmp",
}

func TestParseOnDiskNames(t *testing.T) {
	for _, c := range []struct {
		name     string
		aeu, gen int
	}{{"wal-0-1.log", 0, 1}, {"wal-12-345.log", 12, 345}} {
		aeu, gen, ok := parseWALName(c.name)
		if !ok || aeu != c.aeu || gen != c.gen {
			t.Errorf("parseWALName(%q) = %d, %d, %v; want %d, %d, true", c.name, aeu, gen, ok, c.aeu, c.gen)
		}
	}
	if n, ok := parseCkptName("checkpoint-42.ckpt"); !ok || n != 42 {
		t.Errorf("parseCkptName(checkpoint-42.ckpt) = %d, %v; want 42, true", n, ok)
	}
	for _, name := range malformedNames {
		if _, _, ok := parseWALName(name); ok {
			t.Errorf("parseWALName accepted %q", name)
		}
		if _, ok := parseCkptName(name); ok {
			t.Errorf("parseCkptName accepted %q", name)
		}
	}
}

// TestDirScansIgnoreMalformedNames checks the scans that size a new session
// and pick logs for replay against a directory littered with look-alikes.
func TestDirScansIgnoreMalformedNames(t *testing.T) {
	dir := t.TempDir()
	for _, name := range append([]string{"wal-3-7.log", "wal-3-5.log", "checkpoint-2.ckpt"}, malformedNames...) {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if m.startGen != 8 || m.ckptN != 2 {
		t.Errorf("scan: startGen %d, ckptN %d; want 8, 2", m.startGen, m.ckptN)
	}
	if ids, err := m.walAEUs(); err != nil || !slices.Equal(ids, []int{3}) {
		t.Errorf("walAEUs = %v, %v; want [3]", ids, err)
	}
	if gens, err := m.logGensFor(3, 5); err != nil || !slices.Equal(gens, []int{7}) {
		t.Errorf("logGensFor(3, 5) = %v, %v; want [7]", gens, err)
	}
	if gens, err := m.logGensFor(1, 0); err != nil || len(gens) != 0 {
		t.Errorf("logGensFor(1, 0) = %v, %v; want none", gens, err)
	}
}
