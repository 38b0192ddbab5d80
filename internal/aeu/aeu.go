// Package aeu implements ERIS's Autonomous Execution Units (Section 3.1,
// Figure 3). Each AEU is pinned to one core of the simulated machine and
// exclusively owns one partition per data object, so partition data needs
// no latches. The AEU loop mirrors the paper: (1) drain the incoming data
// command buffer and group commands by data object and command type —
// grouping coalesces scans into a single shared pass and turns lookup and
// upsert streams into latency-hiding batches; (2) process the groups;
// (3) handle pending balancing and transfer commands, growing or shrinking
// the local partitions; then generate new commands (the benchmark workload
// hook), flush the outgoing buffers and start over.
package aeu

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/durable"
	"eris/internal/faults"
	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

// ClientReply in a command's ReplyTo routes results to the engine's client
// callback instead of another AEU.
const ClientReply int32 = -2

// ErrExpired is the error reported for a command whose deadline passed
// while it was parked in the deferred queue (waiting out a partition
// transfer) — the issuer gets a definitive failure instead of a command
// that retries forever.
var ErrExpired = errors.New("aeu: command deadline expired")

// Config tunes AEU behaviour.
type Config struct {
	// SkewWindowNS bounds how far an AEU's virtual clock may run ahead of
	// the slowest core before it yields. Default 20 ms.
	SkewWindowNS float64
	// NoCoalesce disables command grouping: every drained command is
	// processed on its own (the coalescing ablation benchmark).
	NoCoalesce bool
}

func (c Config) withDefaults() Config {
	if c.SkewWindowNS == 0 {
		c.SkewWindowNS = 20e6
	}
	return c
}

// Partition is one AEU's share of a data object.
type Partition struct {
	Object routing.ObjectID
	Kind   routing.TableKind
	Tree   *prefixtree.Tree // range-partitioned index
	Col    *colstore.Column // size-partitioned column

	// Lo/Hi are the inclusive key bounds this AEU is responsible for
	// (range objects). Only the owning AEU writes them.
	Lo, Hi uint64

	// Bounds reconciliation state (owning AEU only): a mismatch between
	// Lo/Hi and the published routing table is adopted only after it has
	// been observed by two consecutive reconcile sweeps, so the normal
	// window between a routing-table update and the matching OpBalance
	// delivery is never mistaken for a lost balance command.
	reconLo, reconHi uint64
	reconArmed       bool

	// Bounds before the last OpBalance, keyed by its epoch. A fetch tagged
	// with the same epoch is judged authoritative against these: in a normal
	// cycle the source's own shrink lands before the targets' fetches, so
	// the current bounds no longer cover the granted ranges even though all
	// of their data is still here. prevHoles are the parts of those bounds
	// whose data this AEU never actually had (ranges under repair when the
	// balance arrived) — a claim over them would just propagate the gap
	// to the next owner as a trusted empty transfer.
	prevLo, prevHi, prevEpoch uint64
	prevHoles                 []keyRange

	// Transfer accounting, the bracket every reader that needs a stable cut
	// across AEUs validates against (client column scans, the checkpoint's
	// image collection). xferGen advances on every extraction (tail detach
	// or range extract) here and on every payload linked here; inFlight
	// counts payloads extracted here that have not landed anywhere yet. Two
	// equal generation sums with zero in flight at both readings prove no
	// payload started, landed or was afloat in between: a scan saw every
	// tuple exactly once, and every moved range is fully inside exactly one
	// AEU's image — a source image cut after its handoff (pruning the
	// handoff's generation) can never be published while the payload is
	// still in flight to a target whose image predates the link.
	xferGen  atomic.Int64
	inFlight atomic.Int64

	// Scan sharing (column objects, owning AEU only; see holdScans):
	// scanExpect is how many client scans the next pass waits for, and
	// scanBehind the loop iteration whose drain takes the scans that
	// queued behind the last pass (0 when nothing was waiting).
	scanExpect int
	scanBehind uint64

	// Monitoring counters sampled by the load balancer.
	accesses  atomic.Int64 // keys/commands touched in the current window
	cmdTimePS atomic.Int64 // processing time in the current window
	cmdCount  atomic.Int64

	// links records transfers applied into this partition (range objects,
	// WAL attached only). Persisted with every checkpoint image so
	// recovery can tell a checkpointed link from one that never happened.
	// An entry is dropped only once a *published* checkpoint's stamp
	// covers its link record — a snapshot that is later discarded (column
	// or range transfer overlapped the collection, image timeout, write
	// error) must not lose provenance the next attempt still needs.
	links []linkEntry
}

// RecordAccess bumps the partition's access-frequency counter; the AEU's
// processing stages call it, and tests use it to shape monitor input.
func (p *Partition) RecordAccess() { p.accesses.Add(1) }

// TakeSample atomically reads and resets the monitoring window, returning
// (accesses, mean command time in ps).
func (p *Partition) TakeSample() (int64, float64) {
	acc := p.accesses.Swap(0)
	t := p.cmdTimePS.Swap(0)
	n := p.cmdCount.Swap(0)
	if n == 0 {
		return acc, 0
	}
	return acc, float64(t) / float64(n)
}

// SizeTuples returns the partition's tuple count.
func (p *Partition) SizeTuples() int64 {
	if p.Kind == routing.RangePartitioned {
		return p.Tree.Count()
	}
	return p.Col.Count()
}

// transfer is a partition payload in flight between two AEUs: either a
// linkable extracted subtree / chunk run, or a flattened copy stream.
type transfer struct {
	obj   routing.ObjectID
	epoch uint64
	from  uint32
	ex    *prefixtree.Extracted
	kvs   []prefixtree.KV
	det   *colstore.Detached
	src   *Partition // source partition, for in-flight accounting
	lo    uint64
	hi    uint64
	// xid is the source's WAL handoff sequence number (0 when the engine
	// runs without durability); the target logs it in its link record so
	// recovery can pair the two sides of the transfer.
	xid uint64
	// auth marks a transfer whose source's bounds covered the whole fetch
	// range (at extraction, or — for a fetch of the current balancing epoch
	// — just before that epoch's own shrink). An authoritative transfer
	// carried everything that exists for the range, so landing it satisfies
	// awaited ranges outright; a non-authoritative one only contributes
	// data and the requester must keep probing.
	auth bool
	// stalled marks a payload that already took the StallTransfer fault,
	// so its release cannot stall again.
	stalled bool
}

// keyRange is an inclusive key interval.
type keyRange struct {
	lo, hi uint64
}

// linkEntry pairs an applied transfer's link range with the WAL sequence
// number of its link record, so SnapshotDurable can tell which entries a
// published checkpoint stamp covers.
type linkEntry struct {
	lr  durable.LinkRange
	seq uint64
}

// heldAck is an epoch acknowledgement parked by the DelayEpochDone fault.
type heldAck struct {
	obj   routing.ObjectID
	epoch uint64
}

// awaitedRange is a key range this AEU owns (per the routing tables) whose
// data it does not hold yet; commands touching it defer — expiring honestly
// at their deadlines — instead of being answered from a tree that misses
// keys which exist, or accepting writes that would collide with the live
// copy when the data finally lands.
//
// epoch != 0: granted by that balancing epoch, its fetch is outstanding, do
// not probe. The entry is removed when an authoritative transfer covers it.
// If the epoch closes first (abandoned, errored, fetch frame lost) the data
// never came: epoch is zeroed in place and the entry becomes a repair.
//
// epoch == 0: a fault ate part of the balance handshake — the OpBalance
// itself (the bounds then grew with no fetch attached) or the OpFetch /
// transfer of a grant. Some of the tuples may still sit in another AEU's
// tree, so the AEU walks its peers with repair fetches. The entry clears
// when an authoritative transfer covers it, or when every peer has been
// probed and every probe's payload has landed — at that point any data any
// peer held for the range has been extracted and linked here, so serving it
// is sound even if the range turns out to be genuinely empty.
type awaitedRange struct {
	obj    routing.ObjectID
	lo, hi uint64
	epoch  uint64
	// from is the most likely holder, probed first: the AEU the balance
	// fetch was addressed to, else the adjacent previous owner (ordered
	// ownership keeps AEU ranges contiguous, so growth low of the old bounds
	// came from ID-1 and growth high of them from ID+1).
	from  uint32
	tries uint8 // probes sent so far (walk position)
	acks  uint8 // probe transfers landed so far
	stall uint8 // sweeps spent fully probed but not fully acked
}

// Generator produces workload commands through the AEU's outbox. Generate
// may route up to its internal batch of commands; it returns false when the
// workload is exhausted (the AEU then only serves incoming commands).
type Generator interface {
	Generate(a *AEU) bool
}

// GeneratorFunc adapts a function to the Generator interface.
type GeneratorFunc func(a *AEU) bool

// Generate implements Generator.
func (f GeneratorFunc) Generate(a *AEU) bool { return f(a) }

// AEU is one worker of the engine.
type AEU struct {
	ID   uint32
	Core topology.CoreID
	Node topology.NodeID

	router  *routing.Router
	inbox   *routing.Inbox // this AEU's incoming buffers; its Wake is the park wake-up
	machine *numasim.Machine
	mems    *mem.System
	cfg     Config
	faults  *faults.Injector

	sessions map[routing.ObjectID]*prefixtree.Session
	parts    map[routing.ObjectID]*Partition
	partList []*Partition

	// Mailbox for partition transfers (the copy/link payload path).
	// stalledMail holds payloads parked by the StallTransfer fault until
	// the next mailbox round releases them.
	mailMu      sync.Mutex
	mail        []transfer
	stalledMail []transfer
	mailCnt     atomic.Int32
	stalledCnt  atomic.Int32

	// Balancing state.
	pendingFetches map[uint64]int // epoch -> outstanding transfers
	awaited        []awaitedRange // owned ranges whose data has not arrived
	deferred       []command.Command
	requeue        []command.Command
	epochDone      func(aeu uint32, obj routing.ObjectID, epoch uint64)
	heldAcks       []heldAck // acks parked by the DelayEpochDone fault

	// Workload.
	Generator Generator
	Rng       *rand.Rand
	genDone   atomic.Bool // read by peers deciding whether they may park
	skewed    bool

	onClientResult func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error)

	// Durability (nil/false without a data directory). pendingAcks holds
	// client acks parked until the WAL fsync covering their records;
	// ckptReq is the engine's in-loop checkpoint-image request slot.
	wal         *durable.Log
	walSync     bool
	pendingAcks []parkedAck
	ckptReq     atomic.Pointer[CkptRequest]

	stop     atomic.Bool
	iter     uint64 // steps taken; paces the iteration-counted duties
	mayHold  bool   // this step may hold client column scans (Run only)
	timeline *Timeline
	peers    []*AEU

	// Per-loop grouping scratch.
	groups    map[groupKey]*group
	order     []groupKey
	groupFree []*group // recycled groups; batches keep their capacity
	noCoSeq   uint64   // distinct group keys when coalescing is disabled

	// Per-group processing scratch, reused across groups and iterations;
	// the AEU loop is single-goroutine, so no synchronization is needed.
	// Anything handed out of the loop (deferred commands, replies retained
	// by a callback) must be cloned, never a scratch alias.
	scratch struct {
		valid       []uint64
		foreign     []uint64
		values      []uint64
		found       []bool
		validKVs    []prefixtree.KV
		foreignKVs  []prefixtree.KV
		replyKVs    []prefixtree.KV
		scanAggs    []colstore.ScanAgg
		scanSpecs   []colstore.ScanSpec
		scanScratch colstore.ScanScratch
	}

	// Counters, registered on the engine's metrics registry under
	// aeu.<id>.*; groupNS is the per-AEU command-group processing-time
	// histogram (virtual nanoseconds).
	opsDone     *metrics.Counter
	forwards    *metrics.Counter
	deferredCnt *metrics.Counter
	iterations  *metrics.Counter
	ctrlErrors  *metrics.Counter // control commands that could not be applied
	xferErrors  *metrics.Counter // failed fetches / dropped transfers
	boundsFixed *metrics.Counter // partitions realigned to the routing table
	repairs     *metrics.Counter // recovering ranges healed by a repair fetch
	expired     *metrics.Counter // deferred commands whose deadline passed
	// Idle parking: parks counts blocks on the inbox, parkTimeouts those the
	// timeout ended with work already waiting — wake-ups the safety net
	// delivered instead of a producer. Timeouts that find nothing are not
	// counted; they are how an idle AEU keeps its iteration-counted duties.
	parks        *metrics.Counter
	parkTimeouts *metrics.Counter
	// Block outcomes of column scans (colstore.ScanStats): blocks streamed
	// (once per pass, however many scans evaluated them) vs the per-scan
	// verdicts that skipped a block or accepted it whole by its zone map.
	// colBytesStreamed counts the bytes of values those blocks streamed, 4
	// per value of a narrow block and 8 of a wide one. colPasses counts
	// passes and colHolds the client scan groups held back for sharers.
	colBlocksScanned *metrics.Counter
	colBytesStreamed *metrics.Counter
	colBlocksPruned  *metrics.Counter
	colBlocksFullHit *metrics.Counter
	colPasses        *metrics.Counter
	colHolds         *metrics.Counter
	groupNS          *metrics.Histogram
}

type groupKey struct {
	obj     routing.ObjectID
	op      command.Op
	replyTo int32
	tag     uint64
	source  uint32
	// deadline (unix nanoseconds, 0 = none) keys point-op groups only:
	// commands with different deadlines never share a batch, so
	// forwarding, deferral and expiry apply one deadline to all members.
	deadline uint64
}

type group struct {
	keys  []uint64
	kvs   []prefixtree.KV
	scans []command.Command
	// scanKeys is the arena holding cloned scan bounds: drained commands
	// are decoded zero-copy, so the retained scans' Keys must not alias
	// the inbox buffer — neither within a step nor while the group is held.
	scanKeys []uint64
	heldAt   uint64 // iteration a scan group was first held for sharers, 0 if not (holdScans)
}

// New creates an AEU pinned to core id of the machine.
func New(r *routing.Router, mems *mem.System, id uint32, cfg Config) *AEU {
	machine := r.Machine()
	core := topology.CoreID(id)
	reg := r.Metrics()
	prefix := fmt.Sprintf("aeu.%d.", id)
	return &AEU{
		ID:               id,
		Core:             core,
		Node:             machine.Topology().NodeOfCore(core),
		router:           r,
		inbox:            r.Inbox(id),
		machine:          machine,
		mems:             mems,
		cfg:              cfg.withDefaults(),
		faults:           r.Faults(),
		sessions:         make(map[routing.ObjectID]*prefixtree.Session),
		parts:            make(map[routing.ObjectID]*Partition),
		pendingFetches:   make(map[uint64]int),
		groups:           make(map[groupKey]*group),
		Rng:              rand.New(rand.NewSource(int64(id)*7919 + 17)),
		opsDone:          reg.Counter(prefix + "ops"),
		forwards:         reg.Counter(prefix + "forwards"),
		deferredCnt:      reg.Counter(prefix + "deferred"),
		iterations:       reg.Counter(prefix + "iterations"),
		ctrlErrors:       reg.Counter(prefix + "control_errors"),
		xferErrors:       reg.Counter(prefix + "transfer_errors"),
		boundsFixed:      reg.Counter(prefix + "bounds_reconciled"),
		repairs:          reg.Counter(prefix + "range_repairs"),
		expired:          reg.Counter(prefix + "expired"),
		parks:            reg.Counter(prefix + "parks"),
		parkTimeouts:     reg.Counter(prefix + "park_timeouts"),
		colBlocksScanned: reg.Counter(prefix + "colscan.blocks_scanned"),
		colBytesStreamed: reg.Counter(prefix + "colscan.bytes_streamed"),
		colBlocksPruned:  reg.Counter(prefix + "colscan.blocks_pruned"),
		colBlocksFullHit: reg.Counter(prefix + "colscan.blocks_full_hit"),
		colPasses:        reg.Counter(prefix + "colscan.passes"),
		colHolds:         reg.Counter(prefix + "colscan.holds"),
		// 250 ns to ~65 ms in 10 exponential buckets: command groups span
		// single-key lookups to full partition scans.
		groupNS: reg.Histogram(prefix+"group_ns", metrics.ExpBuckets(250, 4, 10)),
	}
}

// Router returns the routing layer.
func (a *AEU) Router() *routing.Router { return a.router }

// Machine returns the simulated machine.
func (a *AEU) Machine() *numasim.Machine { return a.machine }

// Outbox returns this AEU's private outgoing buffers.
//
//eris:hotpath
func (a *AEU) Outbox() *routing.Outbox { return a.router.Outbox(a.ID) }

// SetEpochDone installs the balancer's completion callback.
func (a *AEU) SetEpochDone(fn func(aeu uint32, obj routing.ObjectID, epoch uint64)) {
	a.epochDone = fn
}

// SetClientResult installs the engine's client result callback. The kvs
// slice may alias decoder or reply scratch that is reused immediately
// after the callback returns; implementations must copy what they keep.
// answered counts how many request keys (scan commands, for scans) the
// reply settles, which exceeds len(kvs) for missed lookups and for
// upsert/delete acks. A non-nil err marks the answered portion as failed
// (deadline expiry, unserved op) with no payload.
func (a *AEU) SetClientResult(fn func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error)) {
	a.onClientResult = fn
}

// SetTimeline installs a throughput timeline (Figure 13 measurements).
func (a *AEU) SetTimeline(tl *Timeline) { a.timeline = tl }

// AddIndexPartition attaches a range-partitioned index partition backed by
// the store of this AEU's node. Must be called before Run.
func (a *AEU) AddIndexPartition(obj routing.ObjectID, store *prefixtree.Store, lo, hi uint64) (*Partition, error) {
	if _, dup := a.parts[obj]; dup {
		return nil, fmt.Errorf("aeu %d: object %d already attached", a.ID, obj)
	}
	sess := store.NewSession()
	a.sessions[obj] = sess
	p := &Partition{
		Object: obj,
		Kind:   routing.RangePartitioned,
		Tree:   prefixtree.NewTree(sess),
		Lo:     lo,
		Hi:     hi,
	}
	a.parts[obj] = p
	a.partList = append(a.partList, p)
	return p, nil
}

// AddColumnPartition attaches a size-partitioned column partition allocated
// on this AEU's node.
func (a *AEU) AddColumnPartition(obj routing.ObjectID, cfg colstore.Config) (*Partition, error) {
	if _, dup := a.parts[obj]; dup {
		return nil, fmt.Errorf("aeu %d: object %d already attached", a.ID, obj)
	}
	p := &Partition{
		Object: obj,
		Kind:   routing.SizePartitioned,
		Col:    colstore.NewLocal(a.machine, cfg, a.mems.Node(a.Node)),
	}
	a.parts[obj] = p
	a.partList = append(a.partList, p)
	return p, nil
}

// Partition returns the local partition of obj, or nil.
func (a *AEU) Partition(obj routing.ObjectID) *Partition { return a.parts[obj] }

// Session returns this AEU's node-local allocation session for obj's store.
func (a *AEU) Session(obj routing.ObjectID) *prefixtree.Session { return a.sessions[obj] }

// Stop asks the AEU loop to exit after the current iteration.
func (a *AEU) Stop() {
	a.stop.Store(true)
	a.inbox.Wake()
}

// Stopped reports whether Stop was called.
func (a *AEU) Stopped() bool { return a.stop.Load() }

// deliverTransfer places a partition payload into the mailbox; called by
// the sending AEU. A payload hit by the StallTransfer fault is parked in
// the stalled queue for one mailbox round — its balancing epoch stays open
// across loop iterations, exactly the straggler scenario the control plane
// must survive — and released by the receiving AEU's next loop pass.
func (a *AEU) deliverTransfer(t transfer) {
	if !t.stalled && a.faults.Should(faults.StallTransfer) {
		t.stalled = true
		a.mailMu.Lock() //eris:allowblock bounded mailbox append; contended only by control-plane transfer senders
		a.stalledMail = append(a.stalledMail, t)
		a.mailMu.Unlock()
		a.stalledCnt.Add(1)
		a.inbox.Wake()
		return
	}
	a.mailMu.Lock() //eris:allowblock bounded mailbox append; contended only by control-plane transfer senders
	a.mail = append(a.mail, t)
	a.mailMu.Unlock()
	a.mailCnt.Add(1)
	a.inbox.Wake()
}

// releaseStalled moves fault-parked transfer payloads into the live
// mailbox; it reports whether any were released.
func (a *AEU) releaseStalled() bool {
	if a.stalledCnt.Load() == 0 {
		return false
	}
	a.mailMu.Lock() //eris:allowblock bounded mailbox swap; contended only by control-plane transfer senders
	st := a.stalledMail
	a.stalledMail = nil
	a.mail = append(a.mail, st...)
	a.mailMu.Unlock()
	a.stalledCnt.Add(int32(-len(st)))
	a.mailCnt.Add(int32(len(st)))
	return len(st) > 0
}

// Stats snapshots AEU counters.
type Stats struct {
	Ops        int64
	Forwards   int64
	Deferred   int64
	Iterations int64
}

// Stats returns a snapshot of the AEU's counters.
func (a *AEU) Stats() Stats {
	return Stats{
		Ops:        a.opsDone.Load(),
		Forwards:   a.forwards.Load(),
		Deferred:   a.deferredCnt.Load(),
		Iterations: a.iterations.Load(),
	}
}

// ClockNS returns this AEU's virtual time in nanoseconds.
//
//eris:hotpath
func (a *AEU) ClockNS() float64 { return a.machine.ClockNS(a.Core) }

// CountOps records externally executed storage operations (generator-driven
// benchmark work) in the AEU's throughput accounting.
//
//eris:hotpath
func (a *AEU) CountOps(n int64) { a.countOps(n) }

// countOps records completed storage operations for throughput accounting.
//
//eris:hotpath
func (a *AEU) countOps(n int64) {
	a.machine.CountOps(a.Core, n)
	a.opsDone.Add(n)
	if a.timeline != nil {
		a.timeline.Record(a.ClockNS(), n)
	}
}
