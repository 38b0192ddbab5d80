package eris

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestModelOracle is the model-based property test: a stream of random
// upserts, deletes, lookups and range scans runs against the engine while a
// shadow map[uint64]uint64 plays oracle, with the load balancer actively
// reshaping partitions underneath. Lookups must return exactly the oracle's
// pairs, and aggregate range scans must match the oracle's count and sum —
// the coverage protocol makes them exact even mid-rebalance.
//
// Operations from the mutating goroutine are serialized against its own
// oracle updates, so every comparison point has a well-defined expected
// state. A second goroutine issues concurrent read-only traffic on other
// keys purely to keep the wires hot; its results are not checked.
func TestModelOracle(t *testing.T) {
	const (
		domain = 1 << 14
		steps  = 2000
		seed   = 42
	)
	db, err := Open(Options{Machine: "single", Workers: 4, Balancer: "ma3",
		BalancerIntervalSec: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("kv", domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.LoadDense(domain/4, func(k uint64) uint64 { return k * 7 }); err != nil {
		t.Fatal(err)
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}

	oracle := make(map[uint64]uint64, domain/2)
	for k := uint64(0); k < domain/4; k++ {
		oracle[k] = k * 7
	}

	// Background noise: skewed lookups keep the balancer busy moving
	// partitions while the checked stream runs.
	stop := make(chan struct{})
	stopped := false
	var noise sync.WaitGroup
	noise.Add(1)
	go func() {
		defer noise.Done()
		rng := rand.New(rand.NewSource(seed + 1))
		keys := make([]uint64, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range keys {
				keys[i] = uint64(rng.Int63n(domain / 8)) // hot prefix
			}
			if _, err := idx.Lookup(keys); err != nil {
				return // engine shutting down
			}
		}
	}()
	defer func() {
		if !stopped { // a t.Fatal unwound us mid-run
			close(stop)
			noise.Wait()
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	randKeys := func(n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Int63n(domain))
		}
		return keys
	}

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // upsert a batch
			keys := randKeys(1 + rng.Intn(32))
			kvs := make([]KV, len(keys))
			for i, k := range keys {
				kvs[i] = KV{Key: k, Value: uint64(rng.Int63())}
			}
			if err := idx.Upsert(kvs); err != nil {
				t.Fatalf("step %d: upsert: %v", step, err)
			}
			for _, kv := range kvs {
				oracle[kv.Key] = kv.Value
			}
		case op < 6: // delete a batch (some keys absent)
			keys := randKeys(1 + rng.Intn(16))
			if err := idx.Delete(keys); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			for _, k := range keys {
				delete(oracle, k)
			}
		case op < 9: // lookup a batch, compare exactly
			keys := randKeys(1 + rng.Intn(32))
			got, err := idx.Lookup(keys)
			if err != nil {
				t.Fatalf("step %d: lookup: %v", step, err)
			}
			// Oracle answer: one row per requested occurrence that exists —
			// the engine answers duplicate keys in a batch individually.
			var want []KV
			for _, k := range keys {
				if v, ok := oracle[k]; ok {
					want = append(want, KV{Key: k, Value: v})
				}
			}
			// Lookup returns its rows sorted by key, so got is compared
			// as it came back.
			sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			if len(got) != len(want) {
				t.Fatalf("step %d: lookup(%v) = %d rows, oracle %d\n got %v\nwant %v",
					step, keys, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: lookup row %d = %+v, oracle %+v", step, i, got[i], want[i])
				}
			}
		default: // aggregate range scan with a random value predicate
			lo := uint64(rng.Int63n(domain))
			hi := lo + uint64(rng.Int63n(domain/4))
			if hi >= domain {
				hi = domain - 1
			}
			var pred Predicate
			switch rng.Intn(4) {
			case 0:
				pred = PredAll()
			case 1:
				pred = PredLess(uint64(rng.Int63()))
			case 2:
				pred = PredGreater(uint64(rng.Int63()))
			default:
				plo := uint64(rng.Int63())
				pred = PredBetween(plo, plo+uint64(rng.Int63n(1<<61)))
			}
			got, err := idx.ScanRange(lo, hi, pred)
			if err != nil {
				t.Fatalf("step %d: scan [%d,%d]: %v", step, lo, hi, err)
			}
			var matched, sum uint64
			for k, v := range oracle {
				if k >= lo && k <= hi && pred.Matches(v) {
					matched++
					sum += v
				}
			}
			if got.Matched != matched || got.Sum != sum {
				t.Fatalf("step %d: scan [%d,%d] pred %+v = {%d, %d}, oracle {%d, %d}",
					step, lo, hi, pred, got.Matched, got.Sum, matched, sum)
			}
		}
	}

	if cycles := db.BalanceReport(); cycles.Cycles == 0 {
		t.Log("note: balancer never cycled during the run; oracle still exact")
	}
	// Invariants want a quiescent engine: stop the noise, stop the engine,
	// then check.
	close(stop)
	noise.Wait()
	stopped = true
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatalf("invariants after oracle run: %v", err)
	}
}

// TestLookupRowsSortedByKey checks Lookup's order contract on its own: on 4
// workers every batch spans every owner, so the replies arrive in
// completion order, and the rows must still come back sorted by key —
// for sorted, unsorted and duplicate-key batches, with some keys missing.
func TestLookupRowsSortedByKey(t *testing.T) {
	const domain = 1 << 12
	db, err := Open(Options{Machine: "single", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("kv", domain)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}
	// Odd keys only, so about half of every batch misses.
	for lo := uint64(1); lo < domain; lo += 512 {
		kvs := make([]KV, 0, 256)
		for k := lo; k < lo+512; k += 2 {
			kvs = append(kvs, KV{Key: k, Value: k * 3})
		}
		if err := idx.Upsert(kvs); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		keys := make([]uint64, 64)
		for i := range keys {
			// One key per 64th of the domain: every owner is hit.
			keys[i] = uint64(i)*(domain/64) + uint64(rng.Intn(domain/64))
		}
		switch round % 3 {
		case 1: // unsorted
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		case 2: // duplicates, unsorted
			for i := 0; i < 16; i++ {
				keys[rng.Intn(len(keys))] = keys[rng.Intn(len(keys))]
			}
		}
		got, err := idx.Lookup(keys)
		if err != nil {
			t.Fatal(err)
		}
		var want []KV
		for _, k := range keys {
			if k%2 == 1 {
				want = append(want, KV{Key: k, Value: k * 3})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
		if len(got) != len(want) {
			t.Fatalf("round %d: lookup(%v) = %d rows, want %d", round, keys, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: row %d = %+v, want %+v (rows %v)", round, i, got[i], want[i], got)
			}
		}
	}
}
