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
// A shared pass over a narrow block tests its distinct intervals two at a
// time (aggInterval32x2): on AVX-512 one kernel loads each vector of
// sixteen values once and tests both intervals against it, compare into
// an opmask and masked adds; elsewhere the pair is one or two runs of the
// single-interval kernel.
//
// Each single-interval kernel exists twice: aggIntervalGo and
// aggInterval32Go, the portable copies, and AVX2 copies in agg_amd64.s.
// intervalKernel, intervalKernel32 and pairKernel32 are the ones this CPU
// runs, picked once at init (agg_amd64.go, agg_other.go); the Go copies
// are also the oracles the assembly is fuzzed against.

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

// aggInterval32x2 is aggInterval32 for two intervals, [loA, hiA] and
// [loB, hiB], in one pass over a narrow block's values. zmax bounds the
// values (the block's zone map): where it proves that no 32-bit lane sum
// can wrap (laneSumsFit), the AVX-512 kernel sums in 32-bit lanes.
//
//eris:hotpath
func aggInterval32x2(vals []uint32, zmax, loA, hiA, loB, hiB uint64) (matchedA, sumA, matchedB, sumB uint64) {
	if loA > hiA || loA > math.MaxUint32 || loB > hiB || loB > math.MaxUint32 {
		// An interval that matches nothing here: aggInterval32 answers it
		// without a kernel run.
		matchedA, sumA = aggInterval32(vals, loA, hiA)
		matchedB, sumB = aggInterval32(vals, loB, hiB)
		return matchedA, sumA, matchedB, sumB
	}
	hiA, hiB = min(hiA, math.MaxUint32), min(hiB, math.MaxUint32)
	return pairKernel32(vals, uint32(loA), uint32(hiA-loA), uint32(loB), uint32(hiB-loB), laneSumsFit(zmax, len(vals)))
}

// laneSumsFit reports whether n values of at most zmax can be summed in
// the pair kernel's sixteen 32-bit lanes: each lane adds at most
// ceil(n/16) of them, so none wraps while zmax * ceil(n/16) < 2^32 — for
// a full block of 4096 values, while zmax < 2^24.
//
//eris:hotpath
func laneSumsFit(zmax uint64, n int) bool {
	hi, lo := bits.Mul64(zmax, uint64(n+15)/16)
	return hi == 0 && lo < 1<<32
}

// aggInterval32x2Singles is the pair kernel as one intervalKernel32 run
// per distinct interval, for CPUs without AVX-512. It sums in 64 bits, so
// it ignores lanes.
//
//eris:hotpath
func aggInterval32x2Singles(vals []uint32, loA, widthA, loB, widthB uint32, _ bool) (matchedA, sumA, matchedB, sumB uint64) {
	missA, sumA := intervalKernel32(vals, loA, widthA)
	matchedA = uint64(len(vals)) - missA
	if loB == loA && widthB == widthA {
		return matchedA, sumA, matchedA, sumA
	}
	missB, sumB := intervalKernel32(vals, loB, widthB)
	return matchedA, sumA, uint64(len(vals)) - missB, sumB
}
