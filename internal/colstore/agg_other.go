//go:build !amd64

package colstore

// intervalKernel and intervalKernel32 are the portable kernels: there is
// no assembly copy for this architecture.
var (
	intervalKernel   = aggIntervalGo
	intervalKernel32 = aggInterval32Go
)
