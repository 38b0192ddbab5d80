package routing

// Tests for the zero-allocation data-command hot path: route-time chunking
// against OutBufBytes, duplicate-key ordering across the sorted route
// split, aliasing safety of zero-copy drained views under a concurrent
// inbox writer (run with -race), and steady-state allocation guards.

import (
	"sync"
	"testing"

	"eris/internal/command"
	"eris/internal/prefixtree"
)

// TestRouteLookupChunksToOutBufBytes routes a batch much larger than the
// outgoing buffer and asserts every emitted command fits the buffer after
// framing, no chunk exceeds the advertised key cap, and no key is lost or
// duplicated.
func TestRouteLookupChunksToOutBufBytes(t *testing.T) {
	const bufBytes = 64
	r := newRouter(t, 2, Config{OutBufBytes: bufBytes})
	if err := r.RegisterRange(1, uniformRanges(2)); err != nil {
		t.Fatal(err)
	}
	ob := r.Outbox(0)
	keys := make([]uint64, 101)
	for i := range keys {
		keys[i] = uint64(i*9973) % (1 << 20)
	}
	emitted := ob.RouteLookup(1, keys, command.NoReply, 3, 0)
	ob.Flush()

	maxKeys := command.MaxLookupKeys(bufBytes)
	got := map[uint64]int{}
	cmds := 0
	for aeu := uint32(0); aeu < 2; aeu++ {
		r.Drain(aeu, func(c command.Command) {
			cmds++
			if n := 1 + c.EncodedSize(); n > bufBytes {
				t.Errorf("framed command is %d bytes, exceeds OutBufBytes %d", n, bufBytes)
			}
			if len(c.Keys) > maxKeys {
				t.Errorf("chunk carries %d keys, cap is %d", len(c.Keys), maxKeys)
			}
			for _, k := range c.Keys {
				got[k]++
			}
		})
	}
	if cmds != emitted {
		t.Errorf("drained %d commands, RouteLookup reported %d", cmds, emitted)
	}
	for _, k := range keys {
		if got[k] != 1 {
			t.Errorf("key %d delivered %d times", k, got[k])
		}
	}
}

// TestRouteUpsertChunksPreserveDuplicateOrder routes a KV batch with
// duplicate keys through the sorted, chunked split and asserts that
// applying the drained commands in arrival order yields last-write-wins
// per the original batch order (the stable sort contract), while every
// chunk still fits the outgoing buffer.
func TestRouteUpsertChunksPreserveDuplicateOrder(t *testing.T) {
	const bufBytes = 64
	r := newRouter(t, 2, Config{OutBufBytes: bufBytes})
	if err := r.RegisterRange(1, uniformRanges(2)); err != nil {
		t.Fatal(err)
	}
	ob := r.Outbox(0)
	// 10 distinct keys x 4 duplicates; the value encodes the position so
	// the expected winner is the highest value per key.
	kvs := make([]prefixtree.KV, 0, 40)
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < 10; i++ {
			key := uint64(i) * (1 << 16) // spread over both partitions
			kvs = append(kvs, prefixtree.KV{Key: key, Value: uint64(len(kvs))})
		}
	}
	want := map[uint64]uint64{}
	for _, kv := range kvs {
		want[kv.Key] = kv.Value
	}
	emitted := ob.RouteUpsert(1, kvs, command.NoReply, 9, 0)
	ob.Flush()

	maxKVs := command.MaxUpsertKVs(bufBytes)
	applied := map[uint64]uint64{}
	cmds := 0
	for aeu := uint32(0); aeu < 2; aeu++ {
		r.Drain(aeu, func(c command.Command) {
			cmds++
			if n := 1 + c.EncodedSize(); n > bufBytes {
				t.Errorf("framed command is %d bytes, exceeds OutBufBytes %d", n, bufBytes)
			}
			if len(c.KVs) > maxKVs {
				t.Errorf("chunk carries %d KVs, cap is %d", len(c.KVs), maxKVs)
			}
			for _, kv := range c.KVs {
				applied[kv.Key] = kv.Value
			}
		})
	}
	if cmds != emitted {
		t.Errorf("drained %d commands, RouteUpsert reported %d", cmds, emitted)
	}
	if len(applied) != len(want) {
		t.Fatalf("applied %d distinct keys, want %d", len(applied), len(want))
	}
	for k, v := range want {
		if applied[k] != v {
			t.Errorf("key %d: final value %d, want %d (duplicate order broken)", k, applied[k], v)
		}
	}
}

// TestDrainViewsAliasSafetyConcurrent drains zero-copy command views while
// a concurrent remote writer keeps appending to the other inbox half. Under
// -race this validates that views never alias buffer space a writer may
// touch; the pattern check catches logical corruption either way.
func TestDrainViewsAliasSafetyConcurrent(t *testing.T) {
	r := newRouter(t, 2, Config{})
	if err := r.RegisterRange(1, uniformRanges(2)); err != nil {
		t.Fatal(err)
	}
	const (
		batches = 2000
		perBat  = 32
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ob := r.Outbox(1)
		keys := make([]uint64, perBat)
		for b := 0; b < batches; b++ {
			for i := range keys {
				// All keys land in AEU 0's partition and satisfy k%8 == 5.
				keys[i] = (uint64(b*perBat+i)*8 + 5) % (1 << 19)
			}
			ob.RouteLookup(1, keys, command.NoReply, uint64(b), 0)
			ob.Flush()
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	drained := 0
	check := func(c command.Command) {
		for _, k := range c.Keys {
			if k%8 != 5 {
				t.Errorf("corrupt key view %d (want k%%8 == 5)", k)
			}
			drained++
		}
	}
	for {
		r.Drain(0, check)
		select {
		case <-done:
			r.Drain(0, check) // both halves
			r.Drain(0, check)
			if drained != batches*perBat {
				t.Fatalf("drained %d keys, want %d", drained, batches*perBat)
			}
			return
		default:
		}
	}
}

// TestRouteAndDrainSteadyStateAllocs is the allocation regression guard for
// the routing hot path: after warm-up, one route-split + flush + drain
// cycle must not allocate.
func TestRouteAndDrainSteadyStateAllocs(t *testing.T) {
	r := newRouter(t, 4, Config{})
	if err := r.RegisterRange(1, uniformRanges(4)); err != nil {
		t.Fatal(err)
	}
	ob := r.Outbox(0)
	keys := make([]uint64, 64)
	kvs := make([]prefixtree.KV, 64)
	for i := range keys {
		keys[i] = uint64(i*16381) % (1 << 20)
		kvs[i] = prefixtree.KV{Key: keys[i], Value: uint64(i)}
	}
	sink := func(command.Command) {}
	run := func() {
		ob.RouteLookup(1, keys, command.NoReply, 0, 0)
		ob.RouteUpsert(1, kvs, command.NoReply, 0, 0)
		ob.Flush()
		for aeu := uint32(0); aeu < 4; aeu++ {
			r.Drain(aeu, sink)
		}
	}
	for i := 0; i < 32; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("route+drain cycle allocates %.1f times, want 0", avg)
	}
}
