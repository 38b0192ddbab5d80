// Package metrics is the engine-wide observability substrate: a lock-free,
// allocation-free-on-hot-path registry of typed counters, gauges and
// fixed-bucket histograms. Every component of the engine (routing inboxes
// and outboxes, AEUs, the load balancer, the per-node memory managers and
// the simulated machine's link/memory-controller byte counters) registers
// its instruments here, so one atomic Snapshot covers the whole system and
// two snapshots subtract into an interval delta — the measurement model the
// paper's evaluation (Figures 5-13) is built on.
//
// Hot-path discipline: registration (cold) takes a mutex and may allocate;
// updating an instrument is a single atomic add with no map lookup, because
// components hold the *Counter / *Gauge / *Histogram pointers directly.
//
// Names are one engine-wide namespace, checked at registration: a name has
// two or more lowercase dotted segments ("server.accepted",
// "aeu.3.ops"), its first segment belongs to the one package that
// registered it first, and it keeps one kind. A violation is a programming
// error and panics.
package metrics

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//eris:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the delta model to hold).
//
//eris:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
//
//eris:hotpath
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an instantaneous level (bytes in use, queue depth).
type Gauge struct{ v atomic.Int64 }

// Set stores the current level.
//
//eris:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the level by n.
//
//eris:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
//
//eris:hotpath
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency/size distribution. Bucket i counts
// observations <= Bounds[i]; the extra last bucket counts overflows.
// Observe is lock-free and allocation-free.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Int64
}

// Observe records one value.
//
//eris:hotpath
func (h *Histogram) Observe(v int64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []int64 { return h.bounds }

// snapshot reads the histogram's buckets.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// ExpBuckets builds n exponential bucket bounds starting at start and
// multiplying by factor — the standard shape for latency histograms.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	bounds := make([]int64, n)
	v := float64(start)
	for i := range bounds {
		bounds[i] = int64(v)
		v *= factor
	}
	return bounds
}

// Registry holds the engine's instruments. All methods are safe for
// concurrent use; Get-or-create registration is the cold path, instrument
// updates never touch the registry.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	counterFns map[string]func() int64
	gauges     map[string]*Gauge
	gaugeFns   map[string]func() int64
	hists      map[string]*Histogram
	owners     map[string]string // first name segment -> registering package
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		counterFns: make(map[string]func() int64),
		gauges:     make(map[string]*Gauge),
		gaugeFns:   make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
		owners:     make(map[string]string),
	}
}

// namePattern is the naming convention: two or more lowercase dotted
// segments.
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

// checkName panics when name breaks the namespace: it does not match
// namePattern, its first segment is owned by another package, or it is
// already registered under another kind. Every registration method calls
// it directly, so the registering code is three frames above callerPackage:
// checkName, the registration method, its caller.
func (r *Registry) checkName(name, kind string) {
	if !namePattern.MatchString(name) {
		panic(fmt.Sprintf("metrics: %q is not a pkg.name metric name (lowercase dotted segments)", name))
	}
	prefix, _, _ := strings.Cut(name, ".")
	pkg := callerPackage(3)
	if owner, ok := r.owners[prefix]; !ok {
		r.owners[prefix] = pkg
	} else if owner != pkg {
		panic(fmt.Sprintf("metrics: prefix %q of %q is owned by package %s, registered here from %s", prefix, name, owner, pkg))
	}
	taken := ""
	switch {
	case r.counters[name] != nil || r.counterFns[name] != nil:
		taken = "counter"
	case r.gauges[name] != nil || r.gaugeFns[name] != nil:
		taken = "gauge"
	case r.hists[name] != nil:
		taken = "histogram"
	}
	if taken != "" && taken != kind {
		panic(fmt.Sprintf("metrics: %q already registered as a %s", name, taken))
	}
}

// callerPackage returns the import path of the function skip frames above
// callerPackage itself (inlined frames count), with the _test suffix of an
// external test package trimmed.
func callerPackage(skip int) string {
	var pc [1]uintptr
	runtime.Callers(skip+1, pc[:])
	frame, _ := runtime.CallersFrames(pc[:]).Next()
	fn := frame.Function // "eris/internal/aeu.(*AEU).init.func1"
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		fn = fn[:slash+dot]
	}
	return strings.TrimSuffix(fn, "_test")
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CounterFunc registers a cumulative counter backed by fn (a component that
// already maintains its own atomic counter). fn must be safe to call from
// any goroutine.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	r.counterFns[name] = fn
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a level gauge backed by fn. fn must be safe to call
// from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	r.gaugeFns[name] = fn
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds (ascending) if needed. An existing histogram is
// returned as-is; its bounds win.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			panic("metrics: histogram needs at least one bucket bound")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic("metrics: histogram bounds must be ascending")
			}
		}
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot reads every instrument. Each value is loaded atomically; the
// snapshot as a whole is a consistent-enough monitoring view (the engine
// never stops the world).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		UnixNano:   time.Now().UnixNano(),
		Counters:   make(map[string]int64, len(r.counters)+len(r.counterFns)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.gaugeFns)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, fn := range r.counterFns {
		s.Counters[name] = fn()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// HistogramSnapshot is one histogram's state inside a Snapshot.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last bucket is overflow
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot is a point-in-time reading of a Registry. It marshals to JSON
// directly (the HTTP endpoint and the benchmark sidecars serialize it).
type Snapshot struct {
	UnixNano   int64                        `json:"unix_nano"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter value by name (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge value by name (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// SumCounters sums every counter whose name starts with prefix and ends
// with suffix (either may be empty) — e.g. SumCounters("aeu.", ".ops")
// totals operations across AEUs.
func (s Snapshot) SumCounters(prefix, suffix string) int64 {
	var sum int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += v
		}
	}
	return sum
}

// Delta returns the interval reading s-prev: counters and histogram buckets
// subtract, gauges keep their current (s) level. Instruments absent from
// prev are reported at their full value.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		UnixNano:   s.UnixNano,
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		if !ok || len(p.Counts) != len(h.Counts) {
			d.Histograms[name] = h
			continue
		}
		dh := HistogramSnapshot{
			Bounds: h.Bounds,
			Counts: make([]int64, len(h.Counts)),
			Count:  h.Count - p.Count,
			Sum:    h.Sum - p.Sum,
		}
		for i := range h.Counts {
			dh.Counts[i] = h.Counts[i] - p.Counts[i]
		}
		d.Histograms[name] = dh
	}
	return d
}
