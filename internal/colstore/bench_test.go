package colstore

// Scan microbenchmarks: filtered column scans at several selectivities over
// clustered data (values correlated with position, so per-block value
// ranges are tight) and uniform data (hashed values, so every block spans
// the whole domain). Clustered data is where zone-map pruning pays off;
// uniform data measures the raw filter kernel with pruning defeated. The
// shared/* sub-benchmarks time SharedScan, the pass that serves routed
// column scans: one spec, and four specs of which two are identical. Their
// 2 MiB column stays in the last-level cache; the uniform dram/* cases run
// the same pass over 64 MiB, the memory-bound regime of a served column
// partition, with one and with two distinct 10 % Between specs. The
// dram32/* cases repeat them over 8 Mi values below 10^6, shaped like the
// benchmark ledger's column: their blocks are narrow, 32 MiB of uint32.
// Every case sets 8 bytes per value, so MB/s compares across widths.
//
// Run with -benchmem: the scan path must not allocate
// (TestSharedScanSteadyStateAllocs asserts it).

import (
	"testing"
)

const (
	benchEntries = 1 << 18   // 256 K values, 64 blocks of 4096
	dramEntries  = 8 << 20   // 8 Mi values, 64 MiB: far past any last-level cache
	narrowDomain = 1_000_000 // dram32 values lie below this, like the ledger's
)

// benchColumn loads a column with benchEntries values. Clustered columns
// hold value = position; uniform columns hold a hash of the position.
func benchColumn(b *testing.B, clustered bool) *Column {
	b.Helper()
	f := newFixture(b)
	col := f.local(0, 4096)
	if clustered {
		col.Append(0, seq(benchEntries))
	} else {
		col.Append(0, hashed(benchEntries))
	}
	return col
}

// selPred returns a predicate matching roughly frac of a clustered column.
func selPred(frac float64) Predicate {
	n := uint64(float64(benchEntries) * frac)
	if n == 0 {
		n = 1
	}
	return Predicate{Op: Less, Operand: n}
}

// uniformPred returns a predicate matching roughly frac of a uniform
// column: a threshold at frac of the u64 domain.
func uniformPred(frac float64) Predicate {
	if frac >= 1.0 {
		return Predicate{Op: All}
	}
	return Predicate{Op: Less, Operand: uint64(float64(1<<63) * frac * 2)}
}

// uniformBetween returns a Between predicate over the tenth of the u64
// domain that starts at from (a fraction of the domain): on a uniform
// column it matches about 10 %, like the benchmark ledger's column scans.
func uniformBetween(from float64) Predicate {
	lo := uint64(float64(1<<63) * from * 2)
	return Predicate{Op: Between, Operand: lo, High: lo + uint64(float64(1<<63)*0.2)}
}

// benchShared times SharedScan passes over col, one spec per predicate.
func benchShared(b *testing.B, col *Column, preds ...Predicate) {
	specs := make([]ScanSpec, len(preds))
	for i, p := range preds {
		specs[i] = SpecOf(p)
	}
	aggs := make([]ScanAgg, len(specs))
	var scratch ScanScratch
	snap := col.Snapshot()
	b.SetBytes(snap * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(aggs)
		col.SharedScan(0, snap, specs, aggs, &scratch)
	}
}

func BenchmarkColScanClustered(b *testing.B) {
	col := benchColumn(b, true)
	snap := col.Snapshot()
	for _, sel := range []struct {
		name string
		frac float64
	}{
		{"sel=0.1%", 0.001},
		{"sel=1%", 0.01},
		{"sel=10%", 0.1},
		{"sel=100%", 1.0},
	} {
		b.Run(sel.name, func(b *testing.B) {
			p := selPred(sel.frac)
			want := int64(float64(benchEntries) * sel.frac)
			b.SetBytes(benchEntries * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := col.ScanFiltered(0, snap, p)
				if res.Matched != want {
					b.Fatalf("matched %d, want %d", res.Matched, want)
				}
			}
		})
	}
	b.Run("shared/1", func(b *testing.B) { benchShared(b, col, selPred(0.1)) })
	b.Run("shared/4", func(b *testing.B) {
		benchShared(b, col, selPred(0.1), selPred(0.1), selPred(0.01), selPred(0.5))
	})
}

func BenchmarkColScanUniform(b *testing.B) {
	col := benchColumn(b, false)
	snap := col.Snapshot()
	for _, sel := range []struct {
		name string
		frac float64
	}{
		{"sel=1%", 0.01},
		{"sel=50%", 0.5},
		{"sel=100%", 1.0},
	} {
		b.Run(sel.name, func(b *testing.B) {
			// Every block's zone map spans (nearly) the whole domain, so
			// pruning cannot help.
			p := uniformPred(sel.frac)
			b.SetBytes(benchEntries * 8)
			b.ResetTimer()
			var matched int64
			for i := 0; i < b.N; i++ {
				res := col.ScanFiltered(0, snap, p)
				matched = res.Matched
			}
			_ = matched
		})
	}
	b.Run("shared/1", func(b *testing.B) { benchShared(b, col, uniformPred(0.1)) })
	b.Run("shared/4", func(b *testing.B) {
		benchShared(b, col, uniformPred(0.1), uniformPred(0.1), uniformPred(0.01), uniformPred(0.5))
	})
	// Each dram column is loaded by the first case that runs on it.
	var dram, dram32 *Column
	load := func(b *testing.B, col **Column, chunk []uint64) *Column {
		if *col == nil {
			f := newFixture(b)
			*col = f.local(0, 4096)
			for n := 0; n < dramEntries; n += len(chunk) {
				(*col).Append(0, chunk)
			}
			b.ResetTimer()
		}
		return *col
	}
	dramCol := func(b *testing.B) *Column { return load(b, &dram, hashed(1<<16)) }
	dram32Col := func(b *testing.B) *Column {
		chunk := hashed(1 << 16)
		for i := range chunk {
			chunk[i] %= narrowDomain
		}
		return load(b, &dram32, chunk)
	}
	narrowBetween := func(lo uint64) Predicate {
		return Predicate{Op: Between, Operand: lo, High: lo + narrowDomain/10}
	}
	b.Run("dram/1", func(b *testing.B) { benchShared(b, dramCol(b), uniformBetween(0.3)) })
	b.Run("dram/2", func(b *testing.B) { benchShared(b, dramCol(b), uniformBetween(0.3), uniformBetween(0.6)) })
	b.Run("dram32/1", func(b *testing.B) { benchShared(b, dram32Col(b), narrowBetween(300_000)) })
	b.Run("dram32/2", func(b *testing.B) {
		benchShared(b, dram32Col(b), narrowBetween(300_000), narrowBetween(600_000))
	})
}
