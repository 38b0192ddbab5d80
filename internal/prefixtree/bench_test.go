package prefixtree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/topology"
)

// Kernel benchmarks: one partition of 2 Mi dense keys (PrefixBits 8),
// driven with 32-key stratified batches — one key from each 1/32 of the
// population, the share of a 64-key served lookup one AEU sees. Each runs on
// two fixtures: 64-bit keys (eight levels, the width the figure runs use)
// and 24-bit keys (three levels, the width Config.ForDomain fits to a
// served 4 Mi-key index). Each benchmark times the batch kernel and, as the
// per-key baseline, the oracle descent on the same batches, and reports
// ns/key.
const (
	benchKeys  = 2 << 20
	benchBatch = 32
)

// benchFixtures are the two trees, 64-bit first; each loads on first use.
var benchFixtures = []*benchFixture{{keyBits: 64}, {keyBits: 24}}

type benchFixture struct {
	keyBits int
	once    sync.Once
	tree    *Tree
	batches [][]uint64
}

func (f *benchFixture) load(b *testing.B) {
	f.once.Do(func() {
		machine, err := numasim.New(topology.Intel(), numasim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		store, err := NewStore(machine, mem.NewSystem(machine).Node(0), Config{KeyBits: f.keyBits, PrefixBits: 8})
		if err != nil {
			b.Fatal(err)
		}
		tree := NewTree(store.NewSession())
		kvs := make([]KV, 0, 1024)
		for k := uint64(0); k < benchKeys; k++ {
			kvs = append(kvs, KV{Key: k, Value: k})
			if len(kvs) == cap(kvs) {
				tree.UpsertBatch(0, kvs)
				kvs = kvs[:0]
			}
		}
		rng := rand.New(rand.NewSource(1))
		const stratum = benchKeys / benchBatch
		batches := make([][]uint64, 4096)
		for i := range batches {
			batches[i] = make([]uint64, benchBatch)
			for j := range batches[i] {
				batches[i][j] = uint64(j*stratum + rng.Intn(stratum))
			}
		}
		f.tree, f.batches = tree, batches
	})
}

// forEachWidth runs body as a sub-benchmark "keysN" per fixture.
func forEachWidth(b *testing.B, body func(b *testing.B, tree *Tree, batches [][]uint64)) {
	for _, f := range benchFixtures {
		b.Run(fmt.Sprintf("keys%d", f.keyBits), func(b *testing.B) {
			f.load(b)
			body(b, f.tree, f.batches)
		})
	}
}

func runKeyBatches(b *testing.B, batches [][]uint64, op func(keys []uint64)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(batches[i%len(batches)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/key")
}

func BenchmarkLookupBatch(b *testing.B) {
	forEachWidth(b, func(b *testing.B, tree *Tree, batches [][]uint64) {
		values, found := make([]uint64, benchBatch), make([]bool, benchBatch)
		b.Run("kernel", func(b *testing.B) {
			runKeyBatches(b, batches, func(keys []uint64) { tree.LookupBatch(0, keys, values, found) })
		})
		b.Run("oracle", func(b *testing.B) {
			runKeyBatches(b, batches, func(keys []uint64) { oracleLookupBatch(tree, 0, keys, values, found) })
		})
	})
}

// BenchmarkUpsertBatch overwrites present keys, so the tree keeps its shape
// across iterations.
func BenchmarkUpsertBatch(b *testing.B) {
	forEachWidth(b, func(b *testing.B, tree *Tree, batches [][]uint64) {
		kvs := make([]KV, benchBatch)
		upsert := func(keys []uint64, batch func([]KV)) {
			for i, k := range keys {
				kvs[i] = KV{Key: k, Value: k + 1}
			}
			batch(kvs)
		}
		b.Run("kernel", func(b *testing.B) {
			runKeyBatches(b, batches, func(keys []uint64) {
				upsert(keys, func(kvs []KV) { tree.UpsertBatch(0, kvs) })
			})
		})
		b.Run("oracle", func(b *testing.B) {
			runKeyBatches(b, batches, func(keys []uint64) {
				upsert(keys, func(kvs []KV) { oracleUpsertBatch(tree, 0, kvs) })
			})
		})
	})
}
