package colstore

import "math/bits"

// The scan kernel. Every predicate reduces to an inclusive interval
// [lo, hi] (Predicate.Bounds), and lo <= v <= hi is the same test as the
// unsigned v-lo <= hi-lo: one subtraction and one compare per value, with
// no per-operator loop. The kernel counts the values outside the interval
// (misses) and sums the ones inside, both branch-free, so its speed does
// not depend on the selectivity or the data order.
//
// It exists twice: aggIntervalGo, the portable copy, and an AVX2 copy in
// agg_amd64.s. intervalKernel is the one this CPU runs, picked once at
// init (agg_amd64.go, agg_other.go); aggIntervalGo is also the oracle the
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
