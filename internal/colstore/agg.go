package colstore

import (
	"math"
	"math/bits"
)

// The scan kernel. Every predicate reduces to an inclusive interval
// [lo, hi] (Predicate.Bounds), and lo <= v <= hi is the same test as the
// unsigned v-lo <= hi-lo: one subtraction and one compare per value, with
// no per-operator loop. The kernel counts the values outside the interval
// (misses) and sums the ones inside, both branch-free, so its speed does
// not depend on the selectivity or the data order.
//
// Narrow blocks (values below 2^32, held as uint32) run the same test in
// 32-bit lanes: aggInterval32 clamps the interval to the 32-bit domain
// first, so the kernel sees a 32-bit lo and width.
//
// Each kernel exists twice: aggIntervalGo and aggInterval32Go, the
// portable copies, and AVX2 copies in agg_amd64.s. intervalKernel and
// intervalKernel32 are the ones this CPU runs, picked once at init
// (agg_amd64.go, agg_other.go); the Go copies are also the oracles the
// assembly is fuzzed against.

// aggInterval returns the matched count and wrapping sum of the values in
// [lo, hi]. lo > hi is the empty interval.
//
//eris:hotpath
func aggInterval(vals []uint64, lo, hi uint64) (matched, sum uint64) {
	if lo > hi {
		return 0, 0
	}
	misses, sum := intervalKernel(vals, lo, hi-lo)
	return uint64(len(vals)) - misses, sum
}

// aggIntervalGo counts the values outside [lo, lo+width] and sums the
// ones inside.
//
//eris:hotpath
func aggIntervalGo(vals []uint64, lo, width uint64) (misses, sum uint64) {
	for _, v := range vals {
		_, miss := bits.Sub64(width, v-lo, 0) // 1 iff v-lo > width
		misses += miss
		sum += v & (miss - 1)
	}
	return misses, sum
}

// aggInterval32 is aggInterval over a narrow block's values: [lo, hi] is
// first clamped to [0, 2^32-1], the range of every uint32.
//
//eris:hotpath
func aggInterval32(vals []uint32, lo, hi uint64) (matched, sum uint64) {
	if lo > hi || lo > math.MaxUint32 {
		return 0, 0
	}
	hi = min(hi, math.MaxUint32)
	misses, sum := intervalKernel32(vals, uint32(lo), uint32(hi-lo))
	return uint64(len(vals)) - misses, sum
}

// aggInterval32Go counts the values outside [lo, lo+width] and sums the
// ones inside.
//
//eris:hotpath
func aggInterval32Go(vals []uint32, lo, width uint32) (misses, sum uint64) {
	for _, v := range vals {
		_, miss := bits.Sub32(width, v-lo, 0) // 1 iff v-lo > width
		misses += uint64(miss)
		sum += uint64(v & (miss - 1))
	}
	return misses, sum
}
