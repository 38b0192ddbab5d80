// Package core assembles the ERIS storage engine: a simulated NUMA machine,
// per-node memory managers, the NUMA-optimized data command routing layer,
// one Autonomous Execution Unit per core, and the configurable NUMA-aware
// load balancer. It exposes DDL (CreateIndex/CreateColumn), bulk loading,
// a synchronous client API for the storage operations (lookup, upsert,
// scan), benchmark workload generators, and lifecycle control driven by
// virtual time.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eris/internal/aeu"
	"eris/internal/balance"
	"eris/internal/colstore"
	"eris/internal/csbtree"
	"eris/internal/durable"
	"eris/internal/faults"
	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// Config assembles an engine.
type Config struct {
	// Topology is the NUMA machine to run on (required).
	Topology *topology.Topology
	// NumAEUs limits the worker count; 0 runs one AEU per core.
	NumAEUs int
	// Machine tunes the cost simulation.
	Machine numasim.Config
	// Routing tunes the data command routing layer. Its Faults injector,
	// when non-nil, is threaded through the routing drain, the AEU control
	// path, the balancer's ack delivery and the node memory managers; nil
	// (the production configuration) pays one pointer comparison per hook.
	Routing routing.Config
	// AEU tunes the worker loop.
	AEU aeu.Config
	// Tree shapes index objects. Left at zero, KeyBits is fitted to each
	// index's domain (prefixtree.Config.ForDomain), so a tree is only as
	// tall as its keys need; an explicit KeyBits applies to every index and
	// must cover the largest domain.
	Tree prefixtree.Config
	// Column shapes column objects.
	Column colstore.Config
	// Balance configures the load balancer; the balancer goroutine only
	// runs when at least one object is watched.
	Balance balance.Config
	// MetricsAddr, when non-empty, serves the engine's metrics snapshot as
	// JSON over HTTP (GET /metrics) for the engine's lifetime. Use
	// "127.0.0.1:0" for an ephemeral port; MetricsListenAddr reports the
	// bound address after Start.
	MetricsAddr string
	// Durable, when non-nil, attaches per-AEU write-ahead logging and
	// checkpointing (see internal/durable). The caller opens the manager
	// (and runs recovery) before building the engine.
	Durable *durable.Manager
	// CheckpointEvery, with Durable set, runs periodic engine checkpoints
	// on a background goroutine. Zero disables the ticker; checkpoints
	// then happen only at Start, Close, and explicit Checkpoint calls.
	CheckpointEvery time.Duration
}

// objectMeta is engine-side bookkeeping per data object.
type objectMeta struct {
	id     routing.ObjectID
	kind   routing.TableKind
	domain uint64 // exclusive key domain bound (range objects)
	store  map[topology.NodeID]*prefixtree.Store
}

// Engine is a running ERIS instance.
type Engine struct {
	cfg      Config
	machine  *numasim.Machine
	mems     *mem.System
	router   *routing.Router
	aeus     []*aeu.AEU
	balancer *balance.Balancer
	faults   *faults.Injector

	objects map[routing.ObjectID]*objectMeta
	watched bool

	reg       *metrics.Registry
	metricsRv *metrics.Server

	started bool
	stopMu  sync.Mutex
	stopped bool
	crashed bool
	wg      sync.WaitGroup

	// Durability state: loopsUp tells Checkpoint whether images must be
	// cut in-loop (via CkptRequest) or directly (quiescent engine);
	// ckptMu serializes checkpoints; ckptStop ends the periodic ticker.
	loopsUp  atomic.Bool
	ckptMu   sync.Mutex
	ckptStop chan struct{}

	clientMu     sync.Mutex
	nextTag      uint64
	pending      map[uint64]*pendingOp
	clientClosed bool
	sweepStop    chan struct{}  // closed by failPending; ends sweepPending
	sweeper      sync.WaitGroup // the sweepPending goroutine

	timeline *aeu.Timeline
}

// New builds an engine; call CreateIndex/CreateColumn and loaders, then
// Start.
func New(cfg Config) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: Config.Topology is required")
	}
	machine, err := numasim.New(cfg.Topology, cfg.Machine)
	if err != nil {
		return nil, err
	}
	mems := mem.NewSystem(machine)
	n := cfg.NumAEUs
	if n == 0 {
		n = cfg.Topology.NumCores()
	}
	reg := cfg.Routing.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
		cfg.Routing.Metrics = reg
	}
	inj := cfg.Routing.Faults
	if inj != nil {
		inj.RegisterMetrics(reg)
		mems.SetFaults(inj)
	}
	router, err := routing.New(machine, mems, n, cfg.Routing)
	if err != nil {
		return nil, err
	}
	machine.RegisterMetrics(reg)
	mems.RegisterMetrics(reg)
	e := &Engine{
		cfg:     cfg,
		machine: machine,
		mems:    mems,
		router:  router,
		faults:  inj,
		reg:     reg,
		objects: make(map[routing.ObjectID]*objectMeta),
		pending: make(map[uint64]*pendingOp),
	}
	if cfg.Durable != nil {
		cfg.Durable.AttachMetrics(reg)
	}
	for i := 0; i < n; i++ {
		a := aeu.New(router, mems, uint32(i), cfg.AEU)
		a.SetClientResult(e.deliverClientResult)
		if cfg.Durable != nil {
			a.SetWAL(cfg.Durable.Log(i))
		}
		e.aeus = append(e.aeus, a)
	}
	aeu.RegisterPeers(e.aeus)
	e.balancer = balance.New(router, e.aeus, cfg.Balance)
	for _, a := range e.aeus {
		a.SetEpochDone(e.balancer.Ack)
	}
	return e, nil
}

// Machine exposes the simulated machine (epochs, counters, clocks).
func (e *Engine) Machine() *numasim.Machine { return e.machine }

// Metrics returns the engine-wide metrics registry. Every component —
// routing inboxes/outboxes, AEUs, the balancer, the per-node memory
// managers, and the machine's interconnect counters — registers here.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// MetricsSnapshot captures every registered instrument at one instant.
// Pair two snapshots with Delta for interval rates.
func (e *Engine) MetricsSnapshot() metrics.Snapshot { return e.reg.Snapshot() }

// MetricsListenAddr returns the bound address of the metrics HTTP
// endpoint, or "" when Config.MetricsAddr was empty or Start has not run.
func (e *Engine) MetricsListenAddr() string {
	if e.metricsRv == nil {
		return ""
	}
	return e.metricsRv.Addr()
}

// Router exposes the routing layer.
func (e *Engine) Router() *routing.Router { return e.router }

// Memory exposes the per-node memory managers.
func (e *Engine) Memory() *mem.System { return e.mems }

// AEUs returns the engine's workers.
func (e *Engine) AEUs() []*aeu.AEU { return e.aeus }

// Balancer exposes the load balancer (cycle reports).
func (e *Engine) Balancer() *balance.Balancer { return e.balancer }

// Faults exposes the fault-injection registry (nil unless
// Config.Routing.Faults set one).
func (e *Engine) Faults() *faults.Injector { return e.faults }

// NumAEUs returns the worker count.
func (e *Engine) NumAEUs() int { return len(e.aeus) }

// CreateIndex declares a range-partitioned prefix-tree index over the key
// domain [0, domain), split uniformly over all AEUs. Its trees are fitted to
// the domain unless Config.Tree sets KeyBits.
func (e *Engine) CreateIndex(id routing.ObjectID, domain uint64) error {
	if e.started {
		return fmt.Errorf("core: DDL after Start")
	}
	if _, dup := e.objects[id]; dup {
		return fmt.Errorf("core: object %d already exists", id)
	}
	if domain < uint64(len(e.aeus)) {
		return fmt.Errorf("core: domain %d smaller than AEU count %d", domain, len(e.aeus))
	}
	tcfg := e.cfg.Tree.ForDomain(domain)
	if tcfg.KeyBits < 64 && domain-1 >= 1<<uint(tcfg.KeyBits) {
		return fmt.Errorf("core: domain %d exceeds the configured %d-bit key space", domain, tcfg.KeyBits)
	}
	meta := &objectMeta{
		id: id, kind: routing.RangePartitioned, domain: domain,
		store: make(map[topology.NodeID]*prefixtree.Store),
	}
	n := len(e.aeus)
	span := domain / uint64(n)
	entries := make([]csbtree.Entry, n)
	for i, a := range e.aeus {
		store := meta.store[a.Node]
		if store == nil {
			var err error
			store, err = prefixtree.NewStore(e.machine, e.mems.Node(a.Node), tcfg)
			if err != nil {
				return err
			}
			meta.store[a.Node] = store
		}
		lo := uint64(i) * span
		hi := lo + span - 1
		if i == n-1 {
			hi = domain - 1
		}
		if _, err := a.AddIndexPartition(id, store, lo, hi); err != nil {
			return err
		}
		entries[i] = csbtree.Entry{Low: lo, Owner: uint32(i)}
	}
	entries[0].Low = 0
	if err := e.router.RegisterRange(id, entries); err != nil {
		return err
	}
	e.objects[id] = meta
	return nil
}

// CreateColumn declares a size-partitioned column object with one partition
// per AEU.
func (e *Engine) CreateColumn(id routing.ObjectID) error {
	if e.started {
		return fmt.Errorf("core: DDL after Start")
	}
	if _, dup := e.objects[id]; dup {
		return fmt.Errorf("core: object %d already exists", id)
	}
	holders := make([]uint32, len(e.aeus))
	for i, a := range e.aeus {
		if _, err := a.AddColumnPartition(id, e.cfg.Column); err != nil {
			return err
		}
		holders[i] = uint32(i)
	}
	if err := e.router.RegisterSize(id, holders); err != nil {
		return err
	}
	e.objects[id] = &objectMeta{id: id, kind: routing.SizePartitioned}
	return nil
}

// Watch puts an object under load balancer control. For range objects the
// default metric is access frequency, for columns physical size.
func (e *Engine) Watch(id routing.ObjectID, alg balance.Algorithm) error {
	meta := e.objects[id]
	if meta == nil {
		return fmt.Errorf("core: unknown object %d", id)
	}
	metric := balance.AccessFrequency
	if meta.kind == routing.SizePartitioned {
		metric = balance.PhysicalSize
	}
	e.balancer.Watch(id, meta.domain, metric, alg)
	e.watched = true
	return nil
}

// EnableTimeline records per-bin throughput for the run (Figure 13); call
// after loading, before Start. The origin is the current slowest clock.
func (e *Engine) EnableTimeline(spanSec, binSec float64) *aeu.Timeline {
	tl := aeu.NewTimeline(spanSec, binSec)
	tl.SetOrigin(float64(e.machine.MinClock(0, topology.CoreID(len(e.aeus)))) / 1e3)
	for _, a := range e.aeus {
		a.SetTimeline(tl)
	}
	e.timeline = tl
	return tl
}

// SetGenerators installs a workload generator per AEU; fn is called with
// each AEU index.
func (e *Engine) SetGenerators(fn func(i int) aeu.Generator) {
	for i, a := range e.aeus {
		a.Generator = fn(i)
	}
}

// Start launches the AEU goroutines (and the balancer when objects are
// watched).
func (e *Engine) Start() error {
	if e.started {
		return fmt.Errorf("core: already started")
	}
	if e.cfg.MetricsAddr != "" {
		srv, err := metrics.Serve(e.cfg.MetricsAddr, e.reg.Snapshot)
		if err != nil {
			return fmt.Errorf("core: metrics endpoint: %w", err)
		}
		e.metricsRv = srv
	}
	e.started = true
	if e.cfg.Durable != nil {
		// Initial synchronous checkpoint, cut while the engine is still
		// quiescent: it covers everything loaded before Start (bulk loads
		// and recovered state are applied directly, not through the WAL),
		// so log replay alone never has to reconstruct them.
		if err := e.Checkpoint(); err != nil {
			e.started = false
			return fmt.Errorf("core: initial checkpoint: %w", err)
		}
	}
	for _, a := range e.aeus {
		e.wg.Add(1)
		go func(a *aeu.AEU) {
			defer e.wg.Done()
			a.Run()
		}(a)
	}
	e.loopsUp.Store(true)
	sweepStop := make(chan struct{})
	e.clientMu.Lock()
	e.sweepStop = sweepStop
	e.clientMu.Unlock()
	e.sweeper.Add(1)
	go e.sweepPending(sweepStop)
	if e.watched {
		go e.balancer.Run()
	}
	if e.cfg.Durable != nil && e.cfg.CheckpointEvery > 0 {
		e.ckptStop = make(chan struct{})
		e.wg.Add(1)
		go e.checkpointLoop(e.ckptStop)
	}
	return nil
}

// MinClockSec returns the slowest AEU clock in virtual seconds.
func (e *Engine) MinClockSec() float64 {
	return float64(e.machine.MinClock(0, topology.CoreID(len(e.aeus)))) / 1e12
}

// WaitVirtual blocks until every AEU's virtual clock advanced by sec beyond
// the call time, or realTimeout elapses (an error then).
func (e *Engine) WaitVirtual(sec float64, realTimeout time.Duration) error {
	if !e.started {
		return fmt.Errorf("core: WaitVirtual before Start")
	}
	target := e.MinClockSec() + sec
	deadline := time.Now().Add(realTimeout)
	for e.MinClockSec() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: virtual time stalled at %.3fs waiting for %.3fs", e.MinClockSec(), target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// Stop terminates all workers and the balancer. It is idempotent and safe
// to call from several goroutines at once; every caller returns only after
// the engine is down.
func (e *Engine) Stop() {
	e.stopMu.Lock()
	defer e.stopMu.Unlock()
	if !e.started || e.stopped {
		return
	}
	e.stopped = true
	// End periodic checkpoints and wait out an in-flight one while the
	// loops can still serve its image requests.
	e.stopCheckpoints()
	// Fail in-flight synchronous client calls first: their replies die with
	// the AEU loops below, so waiting longer only turns a clean ErrClosed
	// into a 30-second timeout (and a leaked pending entry).
	e.failPending()
	// Stop the balancer before the workers so no new balancing cycle
	// starts mid-shutdown.
	if e.watched {
		e.balancer.Stop()
	}
	for _, a := range e.aeus {
		a.Stop()
	}
	e.wg.Wait()
	// Settle: balancing commands and partition payloads still in flight
	// when the loops exited must be applied, or their keys (and the
	// agreement between partition bounds and the routing table) would be
	// lost with the buffers.
	for round := 0; round < 16 && e.settleRound(); round++ {
	}
	e.loopsUp.Store(false)
	if e.cfg.Durable != nil {
		// Drain the logs so the final checkpoint (Close) supersedes fully
		// fsynced generations.
		e.cfg.Durable.Flush(5 * time.Second)
	}
	if e.metricsRv != nil {
		e.metricsRv.Close()
		e.metricsRv = nil
	}
}

// settleRound runs one Settle per AEU, in turn on the caller's goroutine,
// and reports whether any of them did work. A forward into a peer's full
// inbox spills to its overflow queue, so no Settle waits on another.
func (e *Engine) settleRound() bool {
	busy := false
	for _, a := range e.aeus {
		if a.Settle() {
			busy = true
		}
	}
	return busy
}

// Close stops the engine and, with durability enabled, cuts a final
// checkpoint and closes the data directory cleanly. A crash-stopped
// engine skips both — its directory must stay exactly as the crash left
// it. Close implements io.Closer for API symmetry.
func (e *Engine) Close() error {
	e.Stop()
	mgr := e.cfg.Durable
	if mgr == nil {
		return nil
	}
	e.stopMu.Lock()
	crashed := e.crashed
	e.stopMu.Unlock()
	if crashed || mgr.Closed() || mgr.Crashed() {
		return nil
	}
	err := e.Checkpoint()
	mgr.Close()
	return err
}

// TotalOps sums completed storage operations over all AEUs.
func (e *Engine) TotalOps() int64 {
	var sum int64
	for _, a := range e.aeus {
		sum += a.Stats().Ops
	}
	return sum
}

// ObjectKind returns the partitioning kind of an object.
func (e *Engine) ObjectKind(id routing.ObjectID) (routing.TableKind, error) {
	meta := e.objects[id]
	if meta == nil {
		return 0, fmt.Errorf("core: unknown object %d", id)
	}
	return meta.kind, nil
}

// Domain returns the key domain of a range object.
func (e *Engine) Domain(id routing.ObjectID) (uint64, error) {
	meta := e.objects[id]
	if meta == nil || meta.kind != routing.RangePartitioned {
		return 0, fmt.Errorf("core: object %d is not a range object", id)
	}
	return meta.domain, nil
}
