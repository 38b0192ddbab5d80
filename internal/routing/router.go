package routing

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"eris/internal/command"
	"eris/internal/csbtree"
	"eris/internal/faults"
	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/topology"
)

// Config tunes the routing layer.
type Config struct {
	// OutBufBytes is the capacity of one private outgoing buffer (one per
	// target AEU per source AEU). Default 4096. Figure 5 sweeps this.
	OutBufBytes int
	// InBufBytes is the capacity of each of the two incoming buffers per
	// AEU. Default 1 MiB.
	InBufBytes int
	// FlushOverlap is how many remote descriptor round trips an AEU keeps
	// in flight when flushing several outgoing buffers back to back
	// (independent atomics to distinct nodes). Default 8; the Figure 5
	// experiment sets 1 to isolate the pre-batching effect.
	FlushOverlap int
	// Metrics is the registry the routing counters are registered on. The
	// engine passes its own; nil creates a private registry (standalone
	// routers in tests and examples).
	Metrics *metrics.Registry
	// Faults is the engine's fault-injection registry; nil (the default)
	// disables every hook point.
	Faults *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.OutBufBytes == 0 {
		c.OutBufBytes = 4096
	}
	if c.InBufBytes == 0 {
		c.InBufBytes = 1 << 20
	}
	if c.FlushOverlap == 0 {
		c.FlushOverlap = 8
	}
	return c
}

// Router owns the partition tables, inboxes and outboxes of all AEUs of an
// engine. AEU i is pinned to core i of the machine.
type Router struct {
	machine *numasim.Machine
	mems    *mem.System
	cfg     Config
	numAEUs int
	metrics *metrics.Registry
	faults  *faults.Injector

	inboxes  []*Inbox
	outboxes []*Outbox

	// Drain-path corruption accounting: a frame that does not decode (or an
	// out-of-range multicast reference) is counted and dropped instead of
	// crashing the engine; the remainder of an unparseable unicast stream is
	// charged to droppedBytes because frame boundaries are part of the
	// payload and cannot be recovered past the corruption.
	corruptFrames *metrics.Counter
	unknownFrames *metrics.Counter
	droppedBytes  *metrics.Counter

	// drainDecs are per-AEU decoders: Drain(aeu, ...) reuses aeu's decoder
	// so repeated drains do not allocate. Only the owning AEU drains its
	// inbox, so no synchronization is needed.
	drainDecs []command.Decoder

	// objects is the object table: an immutable map snapshot, read
	// latch-free on every routed batch and replaced copy-on-write under
	// regMu when an object registers.
	regMu   sync.Mutex
	objects atomic.Pointer[map[ObjectID]*object]
}

// New builds the routing layer for numAEUs workers.
func New(machine *numasim.Machine, mems *mem.System, numAEUs int, cfg Config) (*Router, error) {
	if numAEUs <= 0 || numAEUs > machine.Topology().NumCores() {
		return nil, fmt.Errorf("routing: numAEUs %d out of range (machine has %d cores)",
			numAEUs, machine.Topology().NumCores())
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Router{
		machine:       machine,
		mems:          mems,
		cfg:           cfg,
		numAEUs:       numAEUs,
		metrics:       reg,
		faults:        cfg.Faults,
		corruptFrames: reg.Counter("routing.drain.corrupt_frames"),
		unknownFrames: reg.Counter("routing.drain.unknown_frames"),
		droppedBytes:  reg.Counter("routing.drain.dropped_bytes"),
	}
	r.objects.Store(&map[ObjectID]*object{})
	topo := machine.Topology()
	r.inboxes = make([]*Inbox, numAEUs)
	r.outboxes = make([]*Outbox, numAEUs)
	r.drainDecs = make([]command.Decoder, numAEUs)
	for i := 0; i < numAEUs; i++ {
		node := topo.NodeOfCore(topology.CoreID(i))
		r.inboxes[i] = newInbox(mems.Node(node), cfg.InBufBytes, reg, uint32(i))
		r.outboxes[i] = newOutbox(r, uint32(i), node)
	}
	return r, nil
}

// Metrics returns the registry the routing layer's counters live on.
func (r *Router) Metrics() *metrics.Registry { return r.metrics }

// Faults returns the engine's fault-injection registry (nil when injection
// is disabled); the AEUs and the balancer pick their hooks up from here.
func (r *Router) Faults() *faults.Injector { return r.faults }

// NumAEUs returns the number of workers the router serves.
func (r *Router) NumAEUs() int { return r.numAEUs }

// Machine returns the simulated machine.
func (r *Router) Machine() *numasim.Machine { return r.machine }

// Config returns the effective configuration.
func (r *Router) Config() Config { return r.cfg }

// Inbox returns AEU aeu's incoming buffer pair.
func (r *Router) Inbox(aeu uint32) *Inbox { return r.inboxes[aeu] }

// Outbox returns AEU aeu's private outgoing buffers.
//
//eris:hotpath
func (r *Router) Outbox(aeu uint32) *Outbox { return r.outboxes[aeu] }

// nodeOfAEU returns the NUMA node AEU aeu is pinned on.
//
//eris:hotpath
func (r *Router) nodeOfAEU(aeu uint32) topology.NodeID {
	return r.machine.Topology().NodeOfCore(topology.CoreID(aeu))
}

// RegisterRange registers a range-partitioned object with the initial
// partitioning.
func (r *Router) RegisterRange(id ObjectID, entries []csbtree.Entry) error {
	rt, err := NewRangeTable(entries)
	if err != nil {
		return err
	}
	return r.register(id, &object{kind: RangePartitioned, ranged: rt})
}

// RegisterSize registers a size-partitioned (scan-only) object held by the
// given AEUs.
func (r *Router) RegisterSize(id ObjectID, holders []uint32) error {
	return r.register(id, &object{kind: SizePartitioned, bitmap: NewBitmapTable(holders, r.numAEUs)})
}

// register publishes a copy of the object table with o added under id.
// Readers keep the snapshot they loaded and never block.
func (r *Router) register(id ObjectID, o *object) error {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	old := *r.objects.Load()
	if _, dup := old[id]; dup {
		return fmt.Errorf("routing: object %d already registered", id)
	}
	next := maps.Clone(old)
	next[id] = o
	r.objects.Store(&next)
	return nil
}

// object looks up a registered object; it panics on unknown IDs because
// commands for unregistered objects indicate an engine bug, not user error.
//
//eris:hotpath
func (r *Router) object(id ObjectID) *object {
	o := (*r.objects.Load())[id]
	if o == nil {
		panic(fmt.Sprintf("routing: unknown object %d", id)) //eris:allowalloc allocates only on the panic path for an unregistered object; unreachable in a configured engine
	}
	return o
}

// Kind returns the partitioning kind of a registered object.
func (r *Router) Kind(id ObjectID) TableKind { return r.object(id).kind }

// Owner returns the AEU owning key in a range-partitioned object.
func (r *Router) Owner(id ObjectID, key uint64) uint32 {
	return r.object(id).ranged.Owner(key)
}

// OwnersSorted resolves the owners of a batch of keys of a range object in
// one pass over its partition table (see RangeTable.OwnersSorted): one
// descent and a linear merge for ascending keys, a fresh descent at each
// key that breaks the order. owners must have at least len(keys) elements.
func (r *Router) OwnersSorted(id ObjectID, keys []uint64, owners []uint32) {
	r.object(id).ranged.OwnersSorted(keys, owners)
}

// OwnerEntries returns the current partitioning of a range object.
func (r *Router) OwnerEntries(id ObjectID) []csbtree.Entry {
	return r.object(id).ranged.Entries()
}

// UpdateRange publishes a new partitioning for a range object (load
// balancer only).
func (r *Router) UpdateRange(id ObjectID, entries []csbtree.Entry) error {
	o := r.object(id)
	if o.kind != RangePartitioned {
		return fmt.Errorf("routing: object %d is not range partitioned", id)
	}
	return o.ranged.Update(entries)
}

// Holders appends the AEUs holding a size-partitioned object to dst.
func (r *Router) Holders(id ObjectID, dst []uint32) []uint32 {
	return r.object(id).bitmap.Holders(dst)
}
