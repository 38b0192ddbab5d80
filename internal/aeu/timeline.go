package aeu

import "sync/atomic"

// Timeline bins completed operations by virtual time, producing the
// throughput-over-time series of the Figure 13 load balancer experiments.
// All AEUs share one Timeline; recording is atomic.
type Timeline struct {
	binNS    float64
	originNS float64
	bins     []atomic.Int64
}

// NewTimeline creates a timeline of spanSec seconds with binSec buckets.
func NewTimeline(spanSec, binSec float64) *Timeline {
	n := int(spanSec/binSec) + 2
	return &Timeline{binNS: binSec * 1e9, bins: make([]atomic.Int64, n)}
}

// SetOrigin makes subsequent Record calls relative to originNS of virtual
// time (the moment the measured run starts, excluding the load phase).
func (tl *Timeline) SetOrigin(originNS float64) { tl.originNS = originNS }

// Record adds n completed operations at virtual time tNS.
//
//eris:hotpath
func (tl *Timeline) Record(tNS float64, n int64) {
	idx := int((tNS - tl.originNS) / tl.binNS)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tl.bins) {
		idx = len(tl.bins) - 1
	}
	tl.bins[idx].Add(n)
}

// Series returns throughput (ops/s) per bucket.
func (tl *Timeline) Series() []float64 {
	out := make([]float64, len(tl.bins))
	for i := range tl.bins {
		out[i] = float64(tl.bins[i].Load()) / (tl.binNS / 1e9)
	}
	return out
}
