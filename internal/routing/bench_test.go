package routing

// Routing hot-path microbenchmarks (run with -benchmem): route-split of a
// key/KV batch across owners, and the owner-side drain of a full inbox
// payload. Drains run every few route iterations so buffers stay bounded
// and the flush/drain cost is amortized into the per-op numbers, exactly
// as in the AEU loop.

import (
	"testing"

	"eris/internal/command"
	"eris/internal/prefixtree"
)

const benchObj ObjectID = 1

// benchRouter builds a router over numAEUs cores of the Intel topology with
// one range object split evenly over [0, 1<<20).
func benchRouter(b *testing.B, numAEUs int) *Router {
	b.Helper()
	r := newRouter(b, numAEUs, Config{})
	if err := r.RegisterRange(benchObj, uniformRanges(numAEUs)); err != nil {
		b.Fatal(err)
	}
	return r
}

// drainAll empties every inbox, discarding the decoded commands.
func drainAll(r *Router, numAEUs int, fn func(command.Command)) {
	for a := 0; a < numAEUs; a++ {
		r.Drain(uint32(a), fn)
	}
}

func BenchmarkRouteLookup64(b *testing.B) {
	const numAEUs = 16
	r := benchRouter(b, numAEUs)
	ob := r.Outbox(0)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i*16381) % (1 << 20)
	}
	discard := func(command.Command) {}
	// Warm buffers and scratch before measuring.
	for i := 0; i < 32; i++ {
		ob.RouteLookup(benchObj, keys, command.NoReply, 0, 0)
	}
	ob.Flush()
	drainAll(r, numAEUs, discard)
	b.SetBytes(64 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob.RouteLookup(benchObj, keys, command.NoReply, 0, 0)
		if i%16 == 15 {
			ob.Flush()
			drainAll(r, numAEUs, discard)
		}
	}
	b.StopTimer()
	ob.Flush()
	drainAll(r, numAEUs, discard)
}

func BenchmarkRouteUpsert64(b *testing.B) {
	const numAEUs = 16
	r := benchRouter(b, numAEUs)
	ob := r.Outbox(0)
	kvs := make([]prefixtree.KV, 64)
	for i := range kvs {
		kvs[i] = prefixtree.KV{Key: uint64(i*16381) % (1 << 20), Value: uint64(i)}
	}
	discard := func(command.Command) {}
	for i := 0; i < 32; i++ {
		ob.RouteUpsert(benchObj, kvs, command.NoReply, 0, 0)
	}
	ob.Flush()
	drainAll(r, numAEUs, discard)
	b.SetBytes(64 * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob.RouteUpsert(benchObj, kvs, command.NoReply, 0, 0)
		if i%16 == 15 {
			ob.Flush()
			drainAll(r, numAEUs, discard)
		}
	}
	b.StopTimer()
	ob.Flush()
	drainAll(r, numAEUs, discard)
}

// BenchmarkDrainLookup64 isolates the owner-side path: one pre-encoded
// 64-key lookup lands in the inbox, Drain swaps and decodes it.
func BenchmarkDrainLookup64(b *testing.B) {
	r := benchRouter(b, 2)
	cmd := command.Command{Op: command.OpLookup, Object: uint32(benchObj), Source: 1, ReplyTo: command.NoReply}
	cmd.Keys = make([]uint64, 64)
	for i := range cmd.Keys {
		cmd.Keys[i] = uint64(i)
	}
	frame := []byte{1} // kindCmd
	frame = cmd.AppendEncode(frame)
	discard := func(command.Command) {}
	in := r.Inbox(0)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Append(frame)
		if r.Drain(0, discard) != 1 {
			b.Fatal("expected one command")
		}
	}
}

// BenchmarkOwnerPerKey is the partition-table baseline the sorted-batch
// resolution competes with: one CSB+-tree descent per key.
func BenchmarkOwnerPerKey(b *testing.B) {
	entries := uniformRanges(64)
	rt, err := NewRangeTable(entries)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i*16381) % (1 << 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			sink += rt.Owner(k)
		}
	}
	_ = sink
}
