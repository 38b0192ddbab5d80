// Package eris is the public API of the ERIS storage engine
// reproduction: a NUMA-aware, data-oriented, in-memory storage engine for
// analytical workloads (Kissinger et al., ADMS/VLDB 2014), running on a
// simulated NUMA machine.
//
// An Engine runs one Autonomous Execution Unit (AEU) per simulated core.
// Data objects are either range-partitioned prefix-tree indexes (lookup,
// upsert, range scan) or size-partitioned columns (filtered full scans);
// each AEU exclusively owns one partition per object. Data commands travel
// through a NUMA-optimized routing layer, and an optional load balancer
// adapts the partitioning to workload skew at runtime.
//
// Basic use:
//
//	db, err := eris.Open(eris.Options{Machine: "intel"})
//	idx, err := db.CreateIndex("orders", 1<<20)
//	db.Start()
//	idx.Upsert([]eris.KV{{Key: 42, Value: 7}})
//	kvs, err := idx.Lookup([]uint64{42})
//	db.Close()
package eris

import (
	"context"
	"sort"
	"time"

	"fmt"

	"eris/internal/aeu"
	"eris/internal/balance"
	"eris/internal/colstore"
	"eris/internal/core"
	"eris/internal/durable"
	"eris/internal/faults"
	"eris/internal/metrics"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/server"
	"eris/internal/topology"
	"eris/internal/wire"
)

// KV is a key/value pair.
type KV = prefixtree.KV

// Predicate filters scans; see the Pred* constructors.
type Predicate = colstore.Predicate

// Predicate constructors.
func PredAll() Predicate             { return Predicate{Op: colstore.All} }
func PredLess(v uint64) Predicate    { return Predicate{Op: colstore.Less, Operand: v} }
func PredGreater(v uint64) Predicate { return Predicate{Op: colstore.Greater, Operand: v} }
func PredEqual(v uint64) Predicate   { return Predicate{Op: colstore.Equal, Operand: v} }
func PredBetween(lo, hi uint64) Predicate {
	return Predicate{Op: colstore.Between, Operand: lo, High: hi}
}

// ScanResult aggregates a scan: how many values matched and their sum.
type ScanResult = core.ScanAggregate

// Options configures an engine.
type Options struct {
	// Machine selects the simulated NUMA platform: "intel" (4 nodes, 40
	// cores), "amd" (8 nodes, 64 cores), "sgi" (64 nodes, 512 cores) or
	// "single" (no NUMA). Default "intel".
	Machine string
	// Workers limits the AEU count (0 = one per core of the machine).
	Workers int
	// Balancer enables the load balancer with the given algorithm:
	// "" (off), "oneshot", or "maN" for a moving average of window N
	// (e.g. "ma8").
	Balancer string
	// BalancerIntervalSec is the monitoring window in virtual seconds
	// (default 1.0; benchmarks use much shorter windows).
	BalancerIntervalSec float64
	// MetricsAddr, when non-empty, serves the engine's metrics snapshot
	// as JSON over HTTP (GET /metrics) while the engine runs. Use
	// "127.0.0.1:0" for an ephemeral port; MetricsListenAddr reports the
	// bound address after Start.
	MetricsAddr string
	// ListenAddr, when non-empty, serves the engine over the eriswire TCP
	// protocol while it runs: Start binds the address and accepts
	// connections, Close drains them (in-flight requests finish and their
	// responses flush before the engine stops). Use "127.0.0.1:0" for an
	// ephemeral port; ServeAddr reports the bound address after Start.
	// Connect with the internal/client package or `erisload -remote`.
	ListenAddr string
	// GlobalInFlight bounds concurrently executing requests across ALL
	// served connections (0 = the server default). Beyond it requests
	// wait in a bounded queue (at most GlobalInFlight deep) and the
	// overflow is rejected with wire.ErrOverloaded instead of queueing
	// without bound.
	GlobalInFlight int
	// DefaultDeadline is applied to served requests that carry no
	// per-request deadline of their own (0 = no default). Requests that
	// exceed it are rejected with wire.ErrDeadlineExceeded.
	DefaultDeadline time.Duration
	// FaultSeed, when non-zero, enables the deterministic control-plane
	// fault-injection registry with this seed; arm faults with
	// DB.InjectFault. Zero (the default) disables injection entirely.
	FaultSeed int64
	// DataDir, when non-empty, makes the engine durable: every applied
	// write is logged to a per-AEU write-ahead log under this directory,
	// checkpoints snapshot the partitions, and Open recovers the durable
	// state of a previous run (latest checkpoint + log-tail replay,
	// verified with CheckInvariants) before serving. Empty keeps the
	// engine purely in-memory (the paper's configuration).
	DataDir string
	// SyncWrites, with DataDir set, releases write acks only after the
	// fsync covering their log records (group commit batches the waits).
	// Off, writes are still logged but an ack may precede its fsync: a
	// crash can lose the last commit group.
	SyncWrites bool
	// CheckpointEvery, with DataDir set, runs periodic background
	// checkpoints (log tails stay short, old logs are pruned). Zero
	// checkpoints only at Start and Close.
	CheckpointEvery time.Duration
}

// DB is an open engine instance.
type DB struct {
	engine    *core.Engine
	alg       balance.Algorithm
	nextID    routing.ObjectID
	byName    map[string]routing.ObjectID
	started   bool
	recovered *durable.Recovered

	listenAddr      string
	globalInFlight  int
	defaultDeadline time.Duration
	server          *server.Server
}

// Open builds an engine from options; create objects, optionally bulk-load
// them, then Start.
func Open(opts Options) (*DB, error) {
	if opts.Machine == "" {
		opts.Machine = "intel"
	}
	topo, err := topology.ByName(opts.Machine)
	if err != nil {
		return nil, err
	}
	alg, err := parseAlgorithm(opts.Balancer)
	if err != nil {
		return nil, err
	}
	// The fault injector is built here (not inside core.New) when a data
	// directory is in play, so the durability layer shares the engine's
	// deterministic decision stream.
	var inj *faults.Injector
	if opts.FaultSeed != 0 {
		inj = faults.New(opts.FaultSeed)
	}
	var mgr *durable.Manager
	var rec *durable.Recovered
	if opts.DataDir != "" {
		mgr, err = durable.Open(durable.Options{
			Dir:        opts.DataDir,
			SyncWrites: opts.SyncWrites,
			Faults:     inj,
			TearSeed:   opts.FaultSeed,
		})
		if err != nil {
			return nil, err
		}
		if rec, err = mgr.Recover(); err != nil {
			return nil, fmt.Errorf("eris: recovering %s: %w", opts.DataDir, err)
		}
	}
	cfg := core.Config{
		Topology:        topo,
		NumAEUs:         opts.Workers,
		Tree:            prefixtree.Config{PrefixBits: 8},
		Balance:         balance.Config{SampleIntervalSec: opts.BalancerIntervalSec},
		MetricsAddr:     opts.MetricsAddr,
		Durable:         mgr,
		CheckpointEvery: opts.CheckpointEvery,
	}
	cfg.Routing.Faults = inj
	e, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	db := &DB{
		engine: e, alg: alg, byName: make(map[string]routing.ObjectID),
		listenAddr: opts.ListenAddr, globalInFlight: opts.GlobalInFlight,
		defaultDeadline: opts.DefaultDeadline,
	}
	if rec != nil {
		if err := db.restore(rec); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// restore loads a recovered durable state into the fresh engine and
// re-registers the recovered objects under their saved names.
func (db *DB) restore(rec *durable.Recovered) error {
	if err := db.engine.Restore(rec); err != nil {
		return fmt.Errorf("eris: restoring recovered state: %w", err)
	}
	mgr := db.engine.Durable()
	for _, o := range rec.Objects {
		id := routing.ObjectID(o.ID)
		if id > db.nextID {
			db.nextID = id
		}
		name := o.Name
		if name == "" {
			// Objects written by an engine-level (nameless) session stay
			// reachable by a synthetic name.
			name = fmt.Sprintf("object-%d", o.ID)
		}
		db.byName[name] = id
		mgr.RegisterObject(o.ID, name)
		if db.alg != nil {
			if err := db.engine.Watch(id, db.alg); err != nil {
				return err
			}
		}
	}
	if err := db.engine.CheckInvariants(); err != nil {
		return fmt.Errorf("eris: recovered state failed invariant check: %w", err)
	}
	db.recovered = rec
	return nil
}

// Recovered reports whether Open loaded durable state from a previous
// run; recovered objects are reachable via Index and Column by name.
func (db *DB) Recovered() bool { return db.recovered != nil }

// Index returns a handle to an existing index by name (typically one
// recovered from the data directory).
func (db *DB) Index(name string) (*Index, error) {
	id, ok := db.byName[name]
	if !ok {
		return nil, fmt.Errorf("eris: no object %q", name)
	}
	if kind, err := db.engine.ObjectKind(id); err != nil || kind != routing.RangePartitioned {
		return nil, fmt.Errorf("eris: object %q is not an index", name)
	}
	domain, err := db.engine.Domain(id)
	if err != nil {
		return nil, err
	}
	return &Index{db: db, id: id, name: name, domain: domain}, nil
}

// Column returns a handle to an existing column by name (typically one
// recovered from the data directory).
func (db *DB) Column(name string) (*Column, error) {
	id, ok := db.byName[name]
	if !ok {
		return nil, fmt.Errorf("eris: no object %q", name)
	}
	if kind, err := db.engine.ObjectKind(id); err != nil || kind != routing.SizePartitioned {
		return nil, fmt.Errorf("eris: object %q is not a column", name)
	}
	return &Column{db: db, id: id, name: name}, nil
}

// Checkpoint cuts an engine-wide checkpoint on demand (no-op without a
// data directory); see Options.CheckpointEvery for the periodic variant.
func (db *DB) Checkpoint() error { return db.engine.Checkpoint() }

// Durable exposes the durability manager (nil without a data directory):
// log/checkpoint statistics and the crash-fault request flag.
func (db *DB) Durable() *durable.Manager { return db.engine.Durable() }

// CrashStop hard-stops the engine the way kill -9 would: pending calls
// fail, unwritten log buffers are dropped (with the torn_write fault
// armed, each log's unsynced tail is torn mid-record), and no final
// checkpoint is cut. The data directory is left as a crash would leave
// it, ready for recovery by the next Open. For tests and fault drills.
func (db *DB) CrashStop() {
	db.engine.CrashStop()
	if db.server != nil {
		db.server.Close()
		db.server = nil
	}
}

func parseAlgorithm(name string) (balance.Algorithm, error) {
	switch {
	case name == "":
		return nil, nil
	case name == "oneshot":
		return balance.OneShot{}, nil
	case len(name) > 2 && name[:2] == "ma":
		var w int
		if _, err := fmt.Sscanf(name[2:], "%d", &w); err != nil || w < 1 {
			return nil, fmt.Errorf("eris: bad balancer %q (want oneshot or maN)", name)
		}
		return balance.MovingAverage{Window: w}, nil
	default:
		return nil, fmt.Errorf("eris: bad balancer %q (want oneshot or maN)", name)
	}
}

// Engine exposes the underlying engine for advanced use (benchmark
// harnesses, counter inspection).
func (db *DB) Engine() *core.Engine { return db.engine }

func (db *DB) newObject(name string) (routing.ObjectID, error) {
	if _, dup := db.byName[name]; dup {
		return 0, fmt.Errorf("eris: object %q already exists", name)
	}
	db.nextID++
	db.byName[name] = db.nextID
	return db.nextID, nil
}

// dropObject rolls back the name registration after a failed create. The ID
// itself is never reused: a partially failed engine.CreateIndex may already
// have attached partitions under it, and handing the same ID to a later
// object would alias them.
func (db *DB) dropObject(name string) {
	delete(db.byName, name)
}

// Index is a range-partitioned prefix-tree index object.
type Index struct {
	db     *DB
	id     routing.ObjectID
	name   string
	domain uint64
}

// CreateIndex declares an index over the key domain [0, domain). Must be
// called before Start.
func (db *DB) CreateIndex(name string, domain uint64) (*Index, error) {
	id, err := db.newObject(name)
	if err != nil {
		return nil, err
	}
	if err := db.engine.CreateIndex(id, domain); err != nil {
		db.dropObject(name)
		return nil, err
	}
	if db.alg != nil {
		if err := db.engine.Watch(id, db.alg); err != nil {
			db.dropObject(name)
			return nil, err
		}
	}
	if mgr := db.engine.Durable(); mgr != nil {
		mgr.RegisterObject(uint32(id), name)
	}
	return &Index{db: db, id: id, name: name, domain: domain}, nil
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Domain returns the exclusive upper bound of the key domain.
func (ix *Index) Domain() uint64 { return ix.domain }

// LoadDense bulk-loads keys [0, n) before Start; valueOf nil stores the key
// as its own value.
func (ix *Index) LoadDense(n uint64, valueOf func(key uint64) uint64) error {
	return ix.db.engine.LoadIndexDense(ix.id, n, valueOf)
}

// Upsert inserts or overwrites pairs (engine must be started).
func (ix *Index) Upsert(kvs []KV) error {
	return ix.db.engine.UpsertCtx(context.Background(), ix.id, kvs)
}

// Lookup returns the found pairs for keys, sorted by key.
func (ix *Index) Lookup(keys []uint64) ([]KV, error) {
	return ix.db.engine.LookupCtx(context.Background(), ix.id, keys)
}

// Delete removes keys (engine must be started); absent keys are ignored.
func (ix *Index) Delete(keys []uint64) error {
	return ix.db.engine.DeleteCtx(context.Background(), ix.id, keys)
}

// ScanRange aggregates values of keys in [lo, hi] matching pred.
func (ix *Index) ScanRange(lo, hi uint64, pred Predicate) (ScanResult, error) {
	return ix.db.engine.ScanRangeCtx(context.Background(), ix.id, lo, hi, pred)
}

// Rows materializes up to limit rows of [lo, hi] whose values match pred,
// sorted by key. This is the building block for query processing on top of
// the storage primitives (index-nested-loop joins and the like).
func (ix *Index) Rows(lo, hi uint64, pred Predicate, limit int) ([]KV, error) {
	return ix.db.engine.ScanRangeRowsCtx(context.Background(), ix.id, lo, hi, pred, limit)
}

// Column is a size-partitioned column object for full scans.
type Column struct {
	db   *DB
	id   routing.ObjectID
	name string
}

// CreateColumn declares a column object. Must be called before Start.
func (db *DB) CreateColumn(name string) (*Column, error) {
	id, err := db.newObject(name)
	if err != nil {
		return nil, err
	}
	if err := db.engine.CreateColumn(id); err != nil {
		db.dropObject(name)
		return nil, err
	}
	if db.alg != nil {
		if err := db.engine.Watch(id, db.alg); err != nil {
			db.dropObject(name)
			return nil, err
		}
	}
	if mgr := db.engine.Durable(); mgr != nil {
		mgr.RegisterObject(uint32(id), name)
	}
	return &Column{db: db, id: id, name: name}, nil
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// LoadUniform bulk-loads tuplesPerWorker values into every partition before
// Start; valueOf nil generates deterministic pseudo-random values.
func (c *Column) LoadUniform(tuplesPerWorker int64, valueOf func(worker int, i int64) uint64) error {
	return c.db.engine.LoadColumnUniform(c.id, tuplesPerWorker, valueOf)
}

// Scan aggregates all values matching pred across every partition, using
// multicast scan commands and scan sharing.
func (c *Column) Scan(pred Predicate) (ScanResult, error) {
	return c.db.engine.ScanCtx(context.Background(), c.id, pred)
}

// Start launches the AEUs (and the balancer when enabled), then brings up
// the wire server when Options.ListenAddr is set.
func (db *DB) Start() error {
	if err := db.engine.Start(); err != nil {
		return err
	}
	db.started = true
	if db.listenAddr != "" {
		srv := server.New(db.engine, db.objectTable(), server.Options{
			GlobalInFlight:  db.globalInFlight,
			DefaultDeadline: db.defaultDeadline,
			Faults:          db.engine.Faults(),
		})
		if err := srv.Listen(db.listenAddr); err != nil {
			db.engine.Stop()
			return err
		}
		db.server = srv
	}
	return nil
}

// objectTable builds the Welcome object table the wire server announces.
func (db *DB) objectTable() []wire.ObjectInfo {
	out := make([]wire.ObjectInfo, 0, len(db.byName))
	for name, id := range db.byName {
		info := wire.ObjectInfo{ID: uint32(id), Name: name, Kind: wire.KindColumn}
		if kind, err := db.engine.ObjectKind(id); err == nil && kind == routing.RangePartitioned {
			info.Kind = wire.KindIndex
			info.Domain, _ = db.engine.Domain(id)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ServeAddr returns the wire server's bound address ("" when
// Options.ListenAddr was empty or Start has not run).
func (db *DB) ServeAddr() string {
	if db.server == nil {
		return ""
	}
	return db.server.Addr()
}

// Close stops the engine; safe to call multiple times. When the wire
// server is running it is drained first — in-flight remote requests
// complete and their responses flush before the engine goes down, so a
// write acknowledged over the wire is never lost to shutdown.
func (db *DB) Close() error {
	if db.server != nil {
		db.server.Close()
		db.server = nil
	}
	return db.engine.Close()
}

// Stats summarizes engine activity.
type Stats struct {
	Workers    int
	Operations int64
	// VirtualSeconds is the slowest worker's simulated time.
	VirtualSeconds float64
}

// Stats returns a snapshot of engine activity.
func (db *DB) Stats() Stats {
	return Stats{
		Workers:        db.engine.NumAEUs(),
		Operations:     db.engine.TotalOps(),
		VirtualSeconds: db.engine.MinClockSec(),
	}
}

// Workers returns the AEU handles for advanced instrumentation.
func (db *DB) Workers() []*aeu.AEU { return db.engine.AEUs() }

// FaultKinds lists the injectable fault kinds accepted by InjectFault:
// the control-plane kinds "drop_ack", "corrupt_frame", "fail_alloc",
// "delay_epoch_done", "stall_transfer", the wire-server kinds
// "drop_conn" (close a connection in place of a response) and
// "slow_write" (delay a response write), and the durability kinds
// "torn_write" (tear the unsynced log tail mid-record at crash),
// "fail_fsync" (fail a log fsync attempt; the group-commit writer
// retries) and "crash" (request a hard stop at a log append; poll
// Durable().CrashRequested and call CrashStop to honor it).
func FaultKinds() []string {
	kinds := faults.Kinds()
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out
}

// InjectFault arms deterministic injection of one fault kind (see
// FaultKinds). The first `after` eligible events pass untouched, then every
// `every`-th event fails (every <= 1 fails each one), at most `limit` times
// (0 = unbounded). Decisions replay byte-for-byte for a given
// Options.FaultSeed; injection must have been enabled by a non-zero seed.
func (db *DB) InjectFault(kind string, after, every, limit int) error {
	k, err := faults.ParseKind(kind)
	if err != nil {
		return err
	}
	inj := db.engine.Faults()
	if inj == nil {
		return fmt.Errorf("eris: fault injection disabled (set Options.FaultSeed)")
	}
	inj.Arm(k, faults.Rule{After: after, Every: every, Limit: limit})
	return nil
}

// DisarmFaults removes every armed fault rule; injection counters remain
// visible in the metrics snapshot (faults.injected.*).
func (db *DB) DisarmFaults() {
	if inj := db.engine.Faults(); inj != nil {
		inj.DisarmAll()
	}
}

// CheckInvariants verifies routing-table/partition consistency and index
// counter integrity for every object. The engine must be quiescent (before
// Start or after Close).
func (db *DB) CheckInvariants() error { return db.engine.CheckInvariants() }

// BalanceReport summarizes the load balancer's cycle outcomes and
// fail-soft accounting.
type BalanceReport = balance.Report

// BalanceReport returns the balancer's fail-soft accounting.
func (db *DB) BalanceReport() BalanceReport { return db.engine.Balancer().Report() }

// MetricsSnapshot captures every engine instrument — routing buffers,
// AEUs, balancer, memory managers, interconnect — at one instant. Pair two
// snapshots with Snapshot.Delta for interval rates; the snapshot marshals
// to JSON.
func (db *DB) MetricsSnapshot() metrics.Snapshot { return db.engine.MetricsSnapshot() }

// MetricsListenAddr returns the bound address of the metrics HTTP endpoint
// ("" when Options.MetricsAddr was empty or Start has not run).
func (db *DB) MetricsListenAddr() string { return db.engine.MetricsListenAddr() }
