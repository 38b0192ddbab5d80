package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"eris/internal/colstore"
	"eris/internal/durable"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// treeLevels returns the height of the trees backing index id.
func treeLevels(t *testing.T, e *Engine, id routing.ObjectID) int {
	t.Helper()
	cfg := e.AEUs()[0].Partition(id).Tree.Store().Config()
	return cfg.KeyBits / cfg.PrefixBits
}

// TestCreateIndexFitsTreeHeight: with KeyBits unset each index's trees are
// as tall as its domain needs; an explicit KeyBits is honoured.
func TestCreateIndexFitsTreeHeight(t *testing.T) {
	for _, c := range []struct {
		keyBits int
		domain  uint64
		levels  int
	}{
		{0, 4 << 20, 3},
		{0, 32 << 20, 4},
		{0, 1<<64 - 1, 8},
		{64, 4 << 20, 8},
	} {
		e, err := New(Config{Topology: topology.SingleNode(2), Tree: prefixtree.Config{KeyBits: c.keyBits, PrefixBits: 8}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CreateIndex(idxObj, c.domain); err != nil {
			t.Fatal(err)
		}
		if got := treeLevels(t, e, idxObj); got != c.levels {
			t.Errorf("KeyBits %d, domain %d: %d levels, want %d", c.keyBits, c.domain, got, c.levels)
		}
		e.Stop()
	}
}

// TestKeyWidthEquivalence runs one seeded sequence of upserts, deletes,
// lookups, range scans and row scans against an engine whose index is
// fitted to its domain and one with 64-bit keys, checkpoints both, writes
// a little more, recovers each from its data directory and compares every
// answer, the recovered contents included. The recovered index is fitted
// again from its persisted domain.
func TestKeyWidthEquivalence(t *testing.T) {
	fitted := engineTranscript(t, 0)
	wide := engineTranscript(t, 64)
	if len(fitted) != len(wide) {
		t.Fatalf("transcripts differ in length: %d vs %d", len(fitted), len(wide))
	}
	for i := range fitted {
		if fitted[i] != wide[i] {
			t.Fatalf("step %d differs:\n fitted: %s\n 64-bit: %s", i, fitted[i], wide[i])
		}
	}
}

func engineTranscript(t *testing.T, keyBits int) []string {
	t.Helper()
	const domain = 1 << 20
	cfg := func(mgr *durable.Manager) Config {
		return Config{
			Topology: topology.SingleNode(4),
			Tree:     prefixtree.Config{KeyBits: keyBits, PrefixBits: 8},
			Durable:  mgr,
		}
	}
	wantLevels := 3
	if keyBits == 64 {
		wantLevels = 8
	}
	dir := t.TempDir()
	mgr, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg(mgr))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	if got := treeLevels(t, e, idxObj); got != wantLevels {
		t.Fatalf("KeyBits %d: %d levels, want %d", keyBits, got, wantLevels)
	}
	if err := e.LoadIndexDense(idxObj, 1<<14, func(k uint64) uint64 { return k * 3 }); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	all := colstore.Predicate{Op: colstore.All}
	var out []string
	record := func(what string, v any, err error) {
		if err != nil {
			t.Fatalf("KeyBits %d: %s: %v", keyBits, what, err)
		}
		out = append(out, fmt.Sprint(what, " ", v))
	}
	rng := rand.New(rand.NewSource(23))
	key := func() uint64 {
		if rng.Intn(2) == 0 {
			return uint64(rng.Intn(1 << 14)) // the loaded keys
		}
		return uint64(rng.Intn(domain))
	}
	upserts := func(n int) {
		for i := 0; i < n; i++ {
			kvs := make([]prefixtree.KV, 16)
			for j := range kvs {
				kvs[j] = prefixtree.KV{Key: key(), Value: rng.Uint64() >> 1}
			}
			record("upsert", len(kvs), e.UpsertCtx(ctx, idxObj, kvs))
		}
	}
	for step := 0; step < 200; step++ {
		switch rng.Intn(5) {
		case 0:
			upserts(1)
		case 1:
			keys := []uint64{key(), key(), key(), key()}
			record("delete", keys, e.DeleteCtx(ctx, idxObj, keys))
		case 2:
			keys := make([]uint64, 64)
			for j := range keys {
				keys[j] = key()
			}
			kvs, err := e.LookupCtx(ctx, idxObj, keys)
			record("lookup", kvs, err)
		case 3:
			lo := key()
			agg, err := e.ScanRangeCtx(ctx, idxObj, lo, lo+uint64(rng.Intn(1<<16)), all)
			record("scan", agg, err)
		default:
			lo := key()
			rows, err := e.ScanRangeRowsCtx(ctx, idxObj, lo, lo+uint64(rng.Intn(1<<16)), all, 100)
			record("rows", rows, err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	upserts(20) // replayed from the log, after the checkpoint image
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := mgr2.Recover()
	if err != nil || rec == nil {
		t.Fatalf("Recover: %v (%v)", err, rec)
	}
	e2, err := New(cfg(mgr2))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(rec); err != nil {
		t.Fatal(err)
	}
	if got := treeLevels(t, e2, idxObj); got != wantLevels {
		t.Fatalf("KeyBits %d: %d levels after recovery, want %d", keyBits, got, wantLevels)
	}
	if err := e2.Start(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rows, err := e2.ScanRangeRowsCtx(ctx, idxObj, 0, domain-1, all, domain)
	record("recovered", rows, err)
	return out
}
