//go:build amd64

package colstore

// intervalKernel and intervalKernel32 are the AVX2 kernels when the CPU
// and the OS support them, else the portable ones. pairKernel32 is the
// AVX-512 pair kernel where the CPU and the OS support AVX-512, else one
// or two intervalKernel32 runs.
var (
	intervalKernel   = aggIntervalGo
	intervalKernel32 = aggInterval32Go
	pairKernel32     = aggInterval32x2Singles
	avx512           bool
)

func init() {
	if hasAVX2() {
		intervalKernel = aggIntervalAsm
		intervalKernel32 = aggInterval32Asm
	}
	if avx512 = hasAVX512(); avx512 {
		pairKernel32 = aggInterval32x2Asm
	}
}

// hasAVX2 reads the CPU features: AVX2 needs the CPUID bit and an OS that
// saves the YMM registers on context switches (OSXSAVE set and XCR0
// enabling the XMM and YMM state).
func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		ymmXmm  = 0b110   // XCR0: XMM and YMM state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXmm != ymmXmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// hasAVX512 reads the CPU features: the pair kernel needs AVX2, the
// AVX512F CPUID bit and an OS that saves the opmask and ZMM registers
// (XCR0 enabling the XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state).
func hasAVX512() bool {
	const (
		avx512f = 1 << 16 // CPUID.(7,0):EBX
		zmmK    = 0xe6    // XCR0 bits 1, 2, 5, 6 and 7
	)
	if !hasAVX2() {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	return ebx7&avx512f != 0 && xcr0&zmmK == zmmK
}

// aggIntervalAsm runs the AVX2 kernel over the whole groups of eight
// values and the portable kernel over the rest.
//
//eris:hotpath
func aggIntervalAsm(vals []uint64, lo, width uint64) (misses, sum uint64) {
	n := len(vals) &^ 7
	if n > 0 {
		misses, sum = aggIntervalAVX2(&vals[0], n, lo, width)
	}
	m, s := aggIntervalGo(vals[n:], lo, width)
	return misses + m, sum + s
}

// aggIntervalAVX2 is aggIntervalGo over n values at vals, n a multiple of
// eight (agg_amd64.s).
//
//eris:hotpath
//go:noescape
func aggIntervalAVX2(vals *uint64, n int, lo, width uint64) (misses, sum uint64)

// aggInterval32Asm runs the 32-bit AVX2 kernel over the whole groups of
// sixteen values and the portable kernel over the rest.
//
//eris:hotpath
func aggInterval32Asm(vals []uint32, lo, width uint32) (misses, sum uint64) {
	n := len(vals) &^ 15
	if n > 0 {
		misses, sum = aggInterval32AVX2(&vals[0], n, lo, width)
	}
	m, s := aggInterval32Go(vals[n:], lo, width)
	return misses + m, sum + s
}

// aggInterval32AVX2 is aggInterval32Go over n values at vals, n a multiple
// of sixteen (agg_amd64.s).
//
//eris:hotpath
//go:noescape
func aggInterval32AVX2(vals *uint32, n int, lo, width uint32) (misses, sum uint64)

// aggInterval32x2Asm runs the AVX-512 pair kernel over the whole groups
// of sixteen values and the portable kernel, once per interval, over the
// rest. lanes picks the kernel's 32-bit-lane sum loop (laneSumsFit).
//
//eris:hotpath
func aggInterval32x2Asm(vals []uint32, loA, widthA, loB, widthB uint32, lanes bool) (matchedA, sumA, matchedB, sumB uint64) {
	n := len(vals) &^ 15
	if n > 0 {
		matchedA, sumA, matchedB, sumB = aggInterval32x2AVX512(&vals[0], n, loA, widthA, loB, widthB, lanes)
	}
	tail := uint64(len(vals) - n)
	missA, sA := aggInterval32Go(vals[n:], loA, widthA)
	missB, sB := aggInterval32Go(vals[n:], loB, widthB)
	return matchedA + tail - missA, sumA + sA, matchedB + tail - missB, sumB + sB
}

// aggInterval32x2AVX512 counts and sums the values of two intervals
// [loA, loA+widthA] and [loB, loB+widthB] over n values at vals, n a
// multiple of sixteen, loading each value once (agg_amd64.s). lanes sums
// in 32-bit lanes, which only a caller that has proven no lane can wrap
// may ask for.
//
//eris:hotpath
//go:noescape
func aggInterval32x2AVX512(vals *uint32, n int, loA, widthA, loB, widthB uint32, lanes bool) (matchedA, sumA, matchedB, sumB uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
