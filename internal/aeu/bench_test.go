package aeu

// AEU hot-path microbenchmarks (run with -benchmem): the drain→classify→
// process path for a coalesced lookup group, and the full round-robin
// lookup loop across four AEUs. Both use NoReply commands so the numbers
// isolate the serving path (replies are covered by the routing benches).

import (
	"testing"

	"eris/internal/command"
	"eris/internal/prefixtree"
	"eris/internal/topology"
)

// benchHarness preloads every fourth key of the domain so lookups hit a
// populated index.
func benchHarness(b *testing.B, n int, domain uint64) *harness {
	b.Helper()
	h := newHarness(b, topology.SingleNode(n), n, domain)
	for _, a := range h.aeus {
		p := a.Partition(testObj)
		for k := p.Lo; k <= p.Hi; k += 4 {
			p.Tree.Upsert(a.Core, k, k*3, 1)
		}
	}
	return h
}

// BenchmarkDrainClassifyLookup64 measures one producer→consumer hop: AEU 1
// routes a 64-key batch that lands entirely in AEU 0's partition; AEU 0
// drains, classifies and processes the group.
func BenchmarkDrainClassifyLookup64(b *testing.B) {
	h := benchHarness(b, 2, 1<<14)
	src := h.aeus[1].Outbox()
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i*61) % (1 << 13) // all owned by AEU 0
	}
	a0 := h.aeus[0]
	for i := 0; i < 16; i++ { // warm buffers and scratch
		src.RouteLookup(testObj, keys, command.NoReply, 0, 0)
		src.Flush()
		h.router.Drain(a0.ID, a0.classify)
		a0.processGroups()
	}
	b.SetBytes(64 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.RouteLookup(testObj, keys, command.NoReply, 0, 0)
		src.Flush()
		h.router.Drain(a0.ID, a0.classify)
		a0.processGroups()
	}
}

// BenchmarkLookupLoop64x4 measures the full loop: AEU 0 routes a 64-key
// batch spanning all four partitions, then every AEU runs one synchronous
// drain+process+flush iteration.
func BenchmarkLookupLoop64x4(b *testing.B) {
	h := benchHarness(b, 4, 1<<14)
	ob := h.aeus[0].Outbox()
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i*1021) % (1 << 14)
	}
	for i := 0; i < 16; i++ {
		ob.RouteLookup(testObj, keys, command.NoReply, 0, 0)
		ob.Flush()
		for j := range h.aeus {
			h.step(j)
		}
	}
	b.SetBytes(64 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob.RouteLookup(testObj, keys, command.NoReply, 0, 0)
		ob.Flush()
		for j := range h.aeus {
			h.step(j)
		}
	}
}

// BenchmarkUpsertLoop64x4 is the upsert twin of BenchmarkLookupLoop64x4.
func BenchmarkUpsertLoop64x4(b *testing.B) {
	h := benchHarness(b, 4, 1<<14)
	ob := h.aeus[0].Outbox()
	kvs := make([]prefixtree.KV, 64)
	for i := range kvs {
		kvs[i] = prefixtree.KV{Key: uint64(i*1021) % (1 << 14), Value: uint64(i)}
	}
	for i := 0; i < 16; i++ {
		ob.RouteUpsert(testObj, kvs, command.NoReply, 0, 0)
		ob.Flush()
		for j := range h.aeus {
			h.step(j)
		}
	}
	b.SetBytes(64 * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ob.RouteUpsert(testObj, kvs, command.NoReply, 0, 0)
		ob.Flush()
		for j := range h.aeus {
			h.step(j)
		}
	}
}
