//go:build !amd64

package colstore

// intervalKernel is the portable kernel: there is no assembly copy for
// this architecture.
var intervalKernel = aggIntervalGo
