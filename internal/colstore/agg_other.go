//go:build !amd64

package colstore

// intervalKernel, intervalKernel32 and pairKernel32 are the portable
// kernels: there is no assembly copy for this architecture.
var (
	intervalKernel   = aggIntervalGo
	intervalKernel32 = aggInterval32Go
	pairKernel32     = aggInterval32x2Singles
)

// avx512 is false: the AVX-512 pair kernel exists only on amd64.
const avx512 = false
