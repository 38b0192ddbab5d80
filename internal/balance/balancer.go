package balance

import (
	"fmt"
	"sync"
	"time"

	"eris/internal/aeu"
	"eris/internal/command"
	"eris/internal/faults"
	"eris/internal/metrics"
	"eris/internal/routing"
	"eris/internal/topology"
)

// Metric selects what the monitor samples for an object.
type Metric int

// Monitoring metrics (Section 3.3): physical partition size for objects
// that are always scanned entirely, access frequency for objects facing
// lookups or range scans, and mean command execution time as an additional
// signal for the latter.
const (
	AccessFrequency Metric = iota
	PhysicalSize
	MeanCommandTime
)

// Config tunes the balancer.
type Config struct {
	// SampleIntervalSec is the monitoring window in virtual seconds.
	// Default 1.0.
	SampleIntervalSec float64
	// Threshold is the relative standard deviation that triggers a cycle.
	// Default 0.15.
	Threshold float64
	// AckTimeout bounds the real-time wait for AEU acknowledgements.
	// Default 30 s.
	AckTimeout time.Duration
}

// pollReal is the real-time interval at which the balancer polls the
// virtual clocks for the end of a monitoring window.
const pollReal = 200 * time.Microsecond

func (c Config) withDefaults() Config {
	if c.SampleIntervalSec == 0 {
		c.SampleIntervalSec = 1.0
	}
	if c.Threshold == 0 {
		c.Threshold = 0.15
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 30 * time.Second
	}
	return c
}

// watched is one object under balancer control.
type watched struct {
	obj      routing.ObjectID
	kind     routing.TableKind
	metric   Metric
	alg      Algorithm
	domainHi uint64 // exclusive upper bound of the key domain

	// Fail-soft state: after an aborted or timed-out cycle the object is
	// re-evaluated with capped exponential backoff instead of retrying
	// every window (a persistently failing plan must not starve the other
	// watched objects or spin the control plane).
	failStreak   int
	backoffUntil float64 // virtual seconds; skip evaluation before this
}

// Outcome classifies how one balancing cycle ended.
type Outcome int

// Cycle outcomes. A cycle Completed when every involved AEU acknowledged
// its epoch; it was Aborted when planning or the routing-table update
// failed before any command was sent; it TimedOut when the ack wait
// expired (stragglers may still ack later — those are counted stale); it
// was Stopped when the engine shut down mid-wait.
const (
	Completed Outcome = iota
	Aborted
	TimedOut
	Stopped
)

// String names the outcome for reports and logs.
func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Aborted:
		return "aborted"
	case TimedOut:
		return "timed_out"
	case Stopped:
		return "stopped"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Cycle records one executed balancing cycle for reporting.
type Cycle struct {
	Epoch      uint64
	Object     routing.ObjectID
	TimeSec    float64 // virtual time at trigger
	Imbalance  float64
	Algorithm  string
	Involved   int
	MovedEst   uint64
	AckedInSec float64 // real seconds until all AEUs acked
	Outcome    Outcome
	Acked      int    // acks received (== Involved when Completed)
	Err        string // planning/update failure for Aborted cycles
}

type ack struct {
	aeu   uint32
	obj   routing.ObjectID
	epoch uint64
}

// backoffCapIntervals caps the exponential retry backoff after failed
// cycles at this many sampling intervals.
const backoffCapIntervals = 16

// Balancer is the NUMA-aware load balancer component of the engine.
type Balancer struct {
	router  *routing.Router
	aeus    []*aeu.AEU
	cfg     Config
	faults  *faults.Injector
	watched []watched

	acks   chan ack
	stopCh chan struct{}
	doneCh chan struct{}
	epoch  uint64

	mu     sync.Mutex
	cycles []Cycle

	// Counters on the engine's metrics registry (balance.*).
	cycleCnt    *metrics.Counter
	movedEst    *metrics.Counter
	involved    *metrics.Counter
	evaluated   *metrics.Counter
	skippedImb  *metrics.Counter
	aborted     *metrics.Counter
	timeouts    *metrics.Counter
	retries     *metrics.Counter
	acksDropped *metrics.Counter
	acksStale   *metrics.Counter
}

// New creates a balancer over the engine's AEUs. The caller must install
// the balancer's Ack as every AEU's epoch-done callback.
func New(router *routing.Router, aeus []*aeu.AEU, cfg Config) *Balancer {
	reg := router.Metrics()
	return &Balancer{
		router:      router,
		aeus:        aeus,
		cfg:         cfg.withDefaults(),
		faults:      router.Faults(),
		acks:        make(chan ack, 8*len(aeus)+16),
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
		cycleCnt:    reg.Counter("balance.cycles"),
		movedEst:    reg.Counter("balance.moved_tuples_est"),
		involved:    reg.Counter("balance.involved_aeus"),
		evaluated:   reg.Counter("balance.evaluations"),
		skippedImb:  reg.Counter("balance.below_threshold"),
		aborted:     reg.Counter("balance.aborted"),
		timeouts:    reg.Counter("balance.timeouts"),
		retries:     reg.Counter("balance.retries"),
		acksDropped: reg.Counter("balance.acks_dropped"),
		acksStale:   reg.Counter("balance.acks_stale"),
	}
}

// Ack is the AEU epoch-done callback. Every lost ack — injected, or a full
// channel under pathological load — is counted: the cycle's wait then times
// out and the next sampling window re-evaluates, so loss degrades progress
// but never correctness.
func (b *Balancer) Ack(aeuID uint32, obj routing.ObjectID, epoch uint64) {
	if b.faults.Should(faults.DropAck) {
		b.acksDropped.Inc()
		return
	}
	select {
	case b.acks <- ack{aeu: aeuID, obj: obj, epoch: epoch}:
	default:
		b.acksDropped.Inc()
	}
}

// Watch puts an object under balancer control. domainHi is the exclusive
// upper bound of the object's key domain (ignored for size-partitioned
// objects). alg nil defaults to One-Shot.
func (b *Balancer) Watch(obj routing.ObjectID, domainHi uint64, metric Metric, alg Algorithm) {
	if alg == nil {
		alg = OneShot{}
	}
	b.watched = append(b.watched, watched{
		obj:      obj,
		kind:     b.router.Kind(obj),
		metric:   metric,
		alg:      alg,
		domainHi: domainHi,
	})
}

// Cycles returns the executed balancing cycles.
func (b *Balancer) Cycles() []Cycle {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Cycle(nil), b.cycles...)
}

// SampleLoads reads and resets the monitoring window of every AEU's
// partition of obj, returning the configured metric per AEU.
func (b *Balancer) SampleLoads(w watched) []float64 {
	loads := make([]float64, len(b.aeus))
	for i, a := range b.aeus {
		p := a.Partition(w.obj)
		if p == nil {
			continue
		}
		acc, meanPS := p.TakeSample()
		switch w.metric {
		case AccessFrequency:
			loads[i] = float64(acc)
		case PhysicalSize:
			loads[i] = float64(p.SizeTuples())
		case MeanCommandTime:
			loads[i] = meanPS
		}
	}
	return loads
}

// Run executes the monitoring/balancing loop until Stop; it is the
// balancer goroutine's body.
func (b *Balancer) Run() {
	defer close(b.doneCh)
	machine := b.router.Machine()
	last := topology.CoreID(b.router.NumAEUs())
	clockSec := func() float64 { return float64(machine.MinClock(0, last)) / 1e12 }
	next := clockSec() + b.cfg.SampleIntervalSec
	for {
		select {
		case <-b.stopCh:
			return
		case <-time.After(pollReal):
		}
		now := clockSec()
		if now < next {
			continue
		}
		for i := range b.watched {
			b.evaluate(&b.watched[i], now)
		}
		// Advance from the scheduled time, not from the clock after the
		// evaluation: a slow cycle must not push every later window out
		// (drift), it just swallows the windows it overran.
		for next <= clockSec() {
			next += b.cfg.SampleIntervalSec
		}
	}
}

// Stop terminates the Run loop and waits for it to exit.
func (b *Balancer) Stop() {
	close(b.stopCh)
	<-b.doneCh
}

// evaluate samples one object and runs a balancing cycle when the
// imbalance exceeds the threshold. A cycle that cannot be planned or
// published is aborted — counted, recorded, backed off — never fatal: the
// state it leaves behind is exactly the state before the cycle, and the
// next window re-evaluates the same imbalance.
func (b *Balancer) evaluate(w *watched, nowSec float64) {
	if nowSec < w.backoffUntil {
		return
	}
	b.evaluated.Inc()
	if w.failStreak > 0 {
		b.retries.Inc()
	}
	loads := b.SampleLoads(*w)
	imb := Imbalance(loads)
	if imb <= b.cfg.Threshold {
		b.skippedImb.Inc()
		w.failStreak, w.backoffUntil = 0, 0
		return
	}
	var (
		plan *Plan
		err  error
	)
	b.epoch++
	if w.kind == routing.RangePartitioned {
		plan, err = b.planRangeCycle(w, loads)
	} else {
		plan, err = b.planSizeCycle(w)
	}
	if err != nil {
		b.abort(w, nowSec, imb, fmt.Errorf("planning object %d: %w", w.obj, err))
		return
	}
	if plan == nil || plan.Involved() == 0 {
		return
	}
	if plan.Entries != nil {
		if err := b.router.UpdateRange(w.obj, plan.Entries); err != nil {
			b.abort(w, nowSec, imb, fmt.Errorf("updating routing table for object %d: %w", w.obj, err))
			return
		}
	}
	for aeuID, bal := range plan.Commands {
		b.router.Inject(aeuID, &command.Command{
			Op: command.OpBalance, Object: uint32(w.obj),
			Source: aeuID, ReplyTo: command.NoReply,
			Balance: bal,
		})
	}
	start := time.Now()
	outcome, acked := b.waitAcks(plan.Epoch, plan.Involved())
	b.cycleCnt.Inc()
	b.movedEst.Add(int64(plan.MovedTuplesEstimate))
	b.involved.Add(int64(plan.Involved()))
	switch outcome {
	case Completed:
		w.failStreak, w.backoffUntil = 0, 0
	case TimedOut:
		b.timeouts.Inc()
		b.backoff(w, nowSec)
	}
	b.mu.Lock()
	b.cycles = append(b.cycles, Cycle{
		Epoch: plan.Epoch, Object: w.obj, TimeSec: nowSec,
		Imbalance: imb, Algorithm: w.alg.Name(),
		Involved: plan.Involved(), MovedEst: plan.MovedTuplesEstimate,
		AckedInSec: time.Since(start).Seconds(),
		Outcome:    outcome, Acked: acked,
	})
	b.mu.Unlock()
}

// abort records a cycle that failed before any command was sent.
func (b *Balancer) abort(w *watched, nowSec, imb float64, err error) {
	b.aborted.Inc()
	b.backoff(w, nowSec)
	b.mu.Lock()
	b.cycles = append(b.cycles, Cycle{
		Epoch: b.epoch, Object: w.obj, TimeSec: nowSec,
		Imbalance: imb, Algorithm: w.alg.Name(),
		Outcome: Aborted, Err: err.Error(),
	})
	b.mu.Unlock()
}

// backoff pushes the object's next evaluation out exponentially with its
// failure streak, capped at backoffCapIntervals sampling windows.
func (b *Balancer) backoff(w *watched, nowSec float64) {
	w.failStreak++
	wait := 1 << (w.failStreak - 1)
	if w.failStreak > 4 || wait > backoffCapIntervals {
		wait = backoffCapIntervals
	}
	w.backoffUntil = nowSec + float64(wait)*b.cfg.SampleIntervalSec
}

func (b *Balancer) planRangeCycle(w *watched, loads []float64) (*Plan, error) {
	entries := b.router.OwnerEntries(w.obj)
	if len(entries) != len(b.aeus) {
		return nil, fmt.Errorf("object %d has %d ranges for %d AEUs", w.obj, len(entries), len(b.aeus))
	}
	bounds := make([]uint64, len(entries)+1)
	for i, e := range entries {
		if e.Owner != uint32(i) {
			return nil, fmt.Errorf("object %d: range %d owned by AEU %d, ordered ownership required", w.obj, i, e.Owner)
		}
		bounds[i] = e.Low
	}
	bounds[len(entries)] = w.domainHi
	targets := w.alg.Targets(loads)
	newBounds, err := Rebound(bounds, loads, targets)
	if err != nil {
		return nil, err
	}
	return PlanRange(b.epoch, bounds, newBounds)
}

func (b *Balancer) planSizeCycle(w *watched) (*Plan, error) {
	counts := make([]int64, len(b.aeus))
	nodes := make([]topology.NodeID, len(b.aeus))
	for i, a := range b.aeus {
		nodes[i] = a.Node
		if p := a.Partition(w.obj); p != nil {
			counts[i] = p.SizeTuples()
		}
	}
	return PlanSize(b.epoch, counts, nodes)
}

// waitAcks blocks until `expect` acknowledgements for epoch arrive, the
// timeout fires, or the balancer is stopped. Acknowledgements for other
// epochs are stragglers from a timed-out cycle; they are counted stale and
// discarded so they can never satisfy — or corrupt — the current wait.
func (b *Balancer) waitAcks(epoch uint64, expect int) (Outcome, int) {
	deadline := time.After(b.cfg.AckTimeout)
	got := 0
	for got < expect {
		select {
		case a := <-b.acks:
			if a.epoch == epoch {
				got++
			} else {
				b.acksStale.Inc()
			}
		case <-deadline:
			return TimedOut, got
		case <-b.stopCh:
			return Stopped, got
		}
	}
	return Completed, got
}

// Report summarizes the balancer's fail-soft accounting.
type Report struct {
	Evaluations int64  // sampling evaluations run
	Cycles      int64  // cycles that published commands (any outcome)
	Completed   int64  // cycles every involved AEU acknowledged
	Aborted     int64  // failed before publishing (plan / table update)
	TimedOut    int64  // cycles whose ack wait expired
	Stopped     int64  // cycles interrupted by shutdown
	Retries     int64  // evaluations re-attempted after a failed cycle
	AcksDropped int64  // epoch acks lost on delivery
	AcksStale   int64  // stragglers from timed-out cycles
	LastError   string // most recent abort reason, "" if none
}

// Report aggregates the executed cycles and failure counters.
func (b *Balancer) Report() Report {
	r := Report{
		Evaluations: b.evaluated.Load(),
		Cycles:      b.cycleCnt.Load(),
		Aborted:     b.aborted.Load(),
		TimedOut:    b.timeouts.Load(),
		Retries:     b.retries.Load(),
		AcksDropped: b.acksDropped.Load(),
		AcksStale:   b.acksStale.Load(),
	}
	b.mu.Lock()
	for _, c := range b.cycles {
		switch c.Outcome {
		case Completed:
			r.Completed++
		case Stopped:
			r.Stopped++
		case Aborted:
			r.LastError = c.Err
		}
	}
	b.mu.Unlock()
	return r
}
