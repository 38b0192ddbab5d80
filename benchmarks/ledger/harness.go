package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"eris"
	"eris/internal/client"
	"eris/internal/metrics"
)

// config is one invocation's settings; only the smoke test departs from the
// values main fills in.
type config struct {
	seed    int64
	warmup  time.Duration
	measure time.Duration
	window  time.Duration // ops_per_s windows for host.window_cv
	traced  bool
	outDir  string // WAL directories and span files
	sz      sizes
	corrupt bool // smoke test only: the checker expects one wrong value
}

// instance is one set-up engine with its callers' connections.
type instance struct {
	db        *eris.DB
	opts      eris.Options
	tgt       *target
	clients   []*client.Client
	clientReg *metrics.Registry
	tuples    int64
}

// setUp is the timed set-up: eris.Open until the objects are loaded, the
// engine started and every caller's connection dialled.
func setUp(w workload, cfg *config) (*instance, time.Duration, error) {
	opts := w.options(filepath.Join(cfg.outDir, "wal", strconv.Itoa(os.Getpid())))
	in := &instance{opts: opts, clientReg: metrics.NewRegistry()}
	t0 := time.Now()
	db, err := eris.Open(opts)
	if err != nil {
		return nil, 0, err
	}
	in.db = db
	if in.tuples, in.tgt, err = w.build(db); err != nil {
		in.close()
		return nil, 0, err
	}
	if w.served() {
		for i := 0; i < callers; i++ {
			cl, err := client.Dial(db.ServeAddr(), client.Options{Metrics: in.clientReg})
			if err != nil {
				in.close()
				return nil, 0, err
			}
			in.clients = append(in.clients, cl)
		}
		name := indexName
		if in.tgt.col != nil {
			name = columnName
		}
		info, ok := in.clients[0].Object(name)
		if !ok {
			in.close()
			return nil, 0, fmt.Errorf("server does not announce object %q", name)
		}
		in.tgt.obj = info.ID
	}
	return in, time.Since(t0), nil
}

func (in *instance) closeClients() {
	for _, cl := range in.clients {
		cl.Close()
	}
	in.clients = nil
}

func (in *instance) close() {
	in.closeClients()
	switch {
	case in.db == nil:
	case in.opts.DataDir != "":
		// The directory is deleted next; a final checkpoint would only leave
		// dirty pages for the disk to write back under the next run.
		in.db.CrashStop()
	default:
		if err := in.db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ledger: closing engine:", err)
		}
	}
	if in.opts.DataDir != "" {
		os.RemoveAll(in.opts.DataDir)
	}
}

// phase is one stretch of the closed loop. Callers attribute an operation to
// the phase in which it completed.
type phase struct {
	dur    time.Duration
	record bool
	traced bool
}

// phaseRec is what one caller recorded in one phase. lat is preallocated;
// samples beyond its capacity are counted in dropped and fail the run.
type phaseRec struct {
	lat       []int64 // ns, in completion order
	winCount  []int64 // completed operations per window
	attempted int64
	failed    int64
	tuples    int64
	dropped   int64
}

// maxOpsPerSec sizes the latency buffers: per caller, well above the ~7 K
// ops/s a caller reaches today.
const maxOpsPerSec = 60_000

type caller struct {
	id        int
	tgt       target
	served    bool
	m         model
	o         op
	recs      []phaseRec
	tr        *tracer
	colTuples int64
}

func newCaller(id int, w workload, cfg *config, in *instance, phases []phase) *caller {
	c := &caller{id: id, tgt: *in.tgt, served: w.served(), colTuples: in.tuples}
	if c.served {
		c.tgt.cl = in.clients[id]
	}
	c.m = w.newModel(id, rand.New(rand.NewSource(cfg.seed*callers+int64(id))))
	c.o.keys = make([]uint64, batchKeys)
	c.o.kvs = make([]eris.KV, batchKeys)
	c.recs = make([]phaseRec, len(phases))
	for i, ph := range phases {
		if ph.record {
			c.recs[i].lat = make([]int64, 0, int(ph.dur.Seconds()*maxOpsPerSec)+1024)
			c.recs[i].winCount = make([]int64, int(ph.dur/cfg.window)+1)
		}
	}
	return c
}

// run is the closed loop: the next operation is generated and issued only
// after the previous one returned and was checked.
func (c *caller) run(start time.Time, phases []phase, window time.Duration) {
	pi, phaseStart := 0, start
	var warmOps int64
	for {
		c.m.gen(&c.o)
		t0 := time.Now()
		if c.served {
			c.tgt.served(&c.o)
		} else {
			c.tgt.embedded(&c.o)
		}
		t1 := time.Now()
		ok := c.m.check(&c.o) // before any return: an acknowledged write must reach the model
		for t1.Sub(phaseStart) >= phases[pi].dur {
			phaseStart = phaseStart.Add(phases[pi].dur)
			if pi++; pi == len(phases) {
				return
			}
			if phases[pi].traced {
				c.tr.setRate(float64(warmOps) / phases[0].dur.Seconds())
			}
		}
		ph := &phases[pi]
		if !ph.record {
			warmOps++
			continue
		}
		r := &c.recs[pi]
		r.attempted++
		if !ok {
			r.failed++
			continue
		}
		r.tuples += c.o.tuples(c.colTuples)
		r.winCount[t1.Sub(phaseStart)/window]++
		if len(r.lat) < cap(r.lat) {
			r.lat = append(r.lat, int64(t1.Sub(t0)))
		} else {
			r.dropped++
		}
		if ph.traced {
			c.tr.observe(c, t0, t1)
		}
	}
}

// phaseStats is what the callers recorded in one phase.
type phaseStats struct {
	dur         time.Duration
	ops         int64 // successful operations
	attempted   int64
	failed      int64
	tuples      int64
	dropped     int64
	lat         []int64   // ascending
	windowRates []float64 // per window of cfg.window
}

func collect(cs []*caller, pi int, ph phase, window time.Duration) phaseStats {
	st := phaseStats{dur: ph.dur}
	wins := make([]int64, int(ph.dur/window))
	for _, c := range cs {
		r := &c.recs[pi]
		st.attempted += r.attempted
		st.failed += r.failed
		st.tuples += r.tuples
		st.dropped += r.dropped
		st.lat = append(st.lat, r.lat...)
		for i := range wins {
			wins[i] += r.winCount[i]
		}
	}
	st.ops = st.attempted - st.failed
	slices.Sort(st.lat)
	for _, n := range wins {
		st.windowRates = append(st.windowRates, float64(n)/window.Seconds())
	}
	return st
}

// runResult is one attempt at one workload.
type runResult struct {
	Workload        string            `json:"workload"`
	Traced          bool              `json:"traced"`
	Seed            int64             `json:"seed"`
	Seconds         float64           `json:"seconds"`
	WALFilesystem   string            `json:"wal_filesystem"`
	Attempted       int64             `json:"attempted"`
	Failed          int64             `json:"failed"`
	Samples         int               `json:"latency_samples"`
	WindowRates     []float64         `json:"window_rates"`
	RecoveryChecked int64             `json:"recovery_checked_keys"`
	EndToEnd        map[string]value  `json:"end_to_end"`
	PerLayer        map[string]value  `json:"per_layer,omitempty"`
	Attribution     []attributionRow  `json:"attribution,omitempty"`
	metrics         metricSet         // every value by name, for tests
	stealFrac       float64           // of the measured interval
	spans           map[string][]span // per caller, written by the caller of runOnce
}

func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// drive runs the callers through the phases on one instance and returns the
// samples taken at the phase boundaries (len(phases)+1 of them).
func drive(in *instance, cs []*caller, phases []phase, window time.Duration) []sample {
	samples := make([]sample, 0, len(phases)+1)
	samples = append(samples, takeSample(in))
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.run(start, phases, window)
		}(c)
	}
	boundary := start
	for _, ph := range phases {
		boundary = boundary.Add(ph.dur)
		time.Sleep(time.Until(boundary))
		samples = append(samples, takeSample(in))
	}
	wg.Wait()
	return samples
}

// runOnce sets the workload up, warms it up and measures one contiguous
// interval. A traced run splits the interval: the first half is the untraced
// reference on the same engine, so trace.overhead_frac compares like with
// like, and the per-layer counters and spans cover the traced second half.
func runOnce(name string, cfg *config) (*runResult, error) {
	w, err := newWorkload(name, cfg.sz, cfg.seed, cfg.corrupt)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: name, Traced: cfg.traced, Seed: cfg.seed, Seconds: cfg.measure.Seconds(), WALFilesystem: "none"}
	m := metricSet{}

	phases := []phase{{dur: cfg.warmup}, {dur: cfg.measure, record: true}}
	if cfg.traced {
		phases = []phase{{dur: cfg.warmup}, {dur: cfg.measure / 2, record: true}, {dur: cfg.measure - cfg.measure/2, record: true, traced: true}}
	}
	const measured = 1
	last := len(phases) - 1

	heapBefore := heapAfterGC()
	in, d, err := setUp(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	defer in.close()
	m["setup_s"] = d.Seconds()
	if in.opts.DataDir != "" {
		res.WALFilesystem = fsKind(in.opts.DataDir)
	}
	// Heap per tuple comes before the harness allocates the callers' models,
	// latency buffers and probes.
	m["heap_bytes_per_tuple"] = (heapAfterGC() - heapBefore) / float64(in.tuples)
	m["mem.allocated_bytes_per_tuple"] = float64(in.db.MetricsSnapshot().Gauge("mem.allocated_bytes_total")) / float64(in.tuples)

	cs := make([]*caller, callers)
	for i := range cs {
		cs[i] = newCaller(i, w, cfg, in, phases)
	}
	var pr *probes
	if cfg.traced {
		if pr, err = newProbes(w, in); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, c := range cs {
			c.tr = newTracer(pr, c.id)
		}
	}
	runtime.GC()

	samples := drive(in, cs, phases, cfg.window)
	st := collect(cs, measured, phases[measured], cfg.window)
	lastSt := st
	if cfg.traced {
		lastSt = collect(cs, last, phases[last], cfg.window)
		res.Attempted, res.Failed = lastSt.attempted, lastSt.failed
		st.dropped += lastSt.dropped
	}
	if st.dropped > 0 {
		return nil, fmt.Errorf("%s: %d latency samples beyond the preallocated buffer", name, st.dropped)
	}
	res.Attempted += st.attempted
	res.Failed += st.failed
	res.Samples, res.WindowRates = len(st.lat), st.windowRates

	layerCounters(m, samples[last], samples[last+1], lastSt, in)
	if pr != nil {
		res.Attribution = pr.attribute(m, cs, lastSt.lat, w.served())
		res.spans = map[string][]span{}
		for _, c := range cs {
			res.spans[fmt.Sprintf("caller-%d", c.id)] = c.tr.spans()
		}
	}
	if d, ok := w.(*serveUpsertDurable); ok {
		if err := d.crashAndRecover(in, m, res); err != nil {
			return nil, fmt.Errorf("%s: recovery: %w", name, err)
		}
	}

	m["ops_per_s"] = float64(st.ops) / st.dur.Seconds()
	m["p50_us"] = percentile(st.lat, 0.50) / 1e3
	m["p99_us"] = percentile(st.lat, 0.99) / 1e3
	m["tuples_per_s"] = float64(st.tuples) / st.dur.Seconds()
	m["host.window_cv"] = cv(st.windowRates)
	res.stealFrac = stealFrac(samples[measured].host, samples[measured+1].host)
	m["host.steal_frac"] = res.stealFrac
	if cfg.traced && st.ops > 0 {
		m["trace.overhead_frac"] = 1 - (float64(lastSt.ops)/lastSt.dur.Seconds())/m["ops_per_s"]
	}
	m["failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.metrics = m
	res.EndToEnd = m.report(allEndToEnd())
	if res.WALFilesystem == "none" {
		delete(res.EndToEnd, "recover_s") // no recovery without a data directory
	}
	res.PerLayer = m.report(perLayer)
	return res, nil
}

// crashAndRecover hard-stops the engine, reopens its data directory, times
// how long the reopened engine takes to answer its first lookup, and checks
// a deterministic sample of keys against the callers' acknowledged writes.
// The callers have returned, so no write is in flight at the crash and every
// sampled key must hold exactly its last acknowledged value.
func (w *serveUpsertDurable) crashAndRecover(in *instance, m metricSet, res *runResult) error {
	in.closeClients()
	in.db.CrashStop()
	in.db = nil

	opts := in.opts
	opts.ListenAddr = ""
	t0 := time.Now()
	db, err := eris.Open(opts)
	if err != nil {
		return err
	}
	in.db = db // closed, and the directory removed, by runOnce's deferred close
	ix, err := db.Index(indexName)
	if err != nil {
		return err
	}
	if err := db.Start(); err != nil {
		return err
	}
	if _, err := ix.Lookup([]uint64{0}); err != nil {
		return err
	}
	m["recover_s"] = time.Since(t0).Seconds()

	const verifyBatch = 4096
	every := w.sampleEvery
	keys := make([]uint64, 0, verifyBatch)
	for base := uint64(0); base < w.keys; base += verifyBatch * every {
		keys = keys[:0]
		for i := uint64(0); i < verifyBatch && base+i*every < w.keys; i++ {
			// The offset walks both callers' stripes.
			keys = append(keys, base+i*every+i%every)
		}
		got, err := ix.Lookup(keys)
		res.Attempted++
		res.RecoveryChecked += int64(len(keys))
		ok := err == nil && len(got) == len(keys)
		for i := 0; ok && i < len(keys); i++ {
			ok = got[i].Key == keys[i] && got[i].Value == w.expected(keys[i])
		}
		if !ok {
			if res.Failed++; res.Failed == 1 {
				fmt.Fprintf(os.Stderr, "ledger: recovery lost or changed acknowledged data among keys %d..%d (err=%v, %d of %d found)\n",
					keys[0], keys[len(keys)-1], err, len(got), len(keys))
			}
		}
	}
	snap := db.MetricsSnapshot()
	for _, name := range []string{"replay_records", "replay_bytes", "torn_tails", "recovery_ns"} {
		m["durable."+name] = float64(snap.Counter("durable." + name))
	}
	return nil
}
