// Package faults is the engine's deterministic fault-injection registry.
// The balance/transfer control plane is a distributed protocol (sample,
// re-plan, update routing tables, transfer partitions, collect acks) whose
// failure handling cannot be exercised by happy-path tests: the interesting
// states only appear when an ack is lost, a frame is corrupted mid-flight,
// an allocation fails transiently, or a transfer stalls while the next
// cycle is already being planned. This package provides seeded, repeatable
// injection of exactly those events.
//
// Hook points are threaded through the components (routing drain, the
// balancer's ack delivery, the AEU control path, the node memory managers)
// as a nil-able *Injector: a nil injector reduces every hook to one pointer
// comparison, so production paths pay nothing. Tests arm rules per fault
// kind; decisions are made by a deterministic per-kind event counter (or an
// optional seeded probability stream), so a failing chaos run reproduces
// byte-for-byte from its seed and rule set.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"eris/internal/metrics"
)

// Kind identifies one injectable fault.
type Kind uint8

// The injectable fault kinds, each named for the event it sabotages.
const (
	// DropAck discards a balancer epoch-done acknowledgement on delivery;
	// the balancing cycle must time out and the next window must recover.
	DropAck Kind = iota
	// CorruptFrame clobbers the first frame of a drained inbox payload so
	// it no longer decodes; the drain path must count and drop it.
	CorruptFrame
	// FailAlloc makes a node memory-manager allocation fail transiently;
	// the manager must absorb it (retry) instead of failing the engine.
	FailAlloc
	// DelayEpochDone holds an AEU's epoch-done ack for one loop round,
	// producing late (possibly post-timeout, stale-epoch) acks.
	DelayEpochDone
	// StallTransfer parks a partition-transfer payload for one mailbox
	// round, keeping its balancing epoch open across loop iterations.
	StallTransfer
	// DropConn closes a wire-server connection in place of writing a
	// response; clients must see a connection error, never a corrupt or
	// half-written frame, and the engine must be unaffected.
	DropConn
	// SlowWrite delays one wire-server response write, backing the
	// connection's response stream up against its in-flight limit.
	SlowWrite
	// TornWrite tears the unsynced tail of each write-ahead log at crash:
	// bytes written to the OS but not covered by an fsync are truncated at
	// a random offset, possibly mid-record. Recovery must stop cleanly at
	// the last valid frame.
	TornWrite
	// FailFsync makes a WAL group-commit fsync fail transiently; the log
	// writer must retry (acks stay parked) instead of losing durability.
	FailFsync
	// FailWrite makes a WAL group-commit file write fail transiently; the
	// writer must retry the segment in place — dropping it would let a
	// later fsync advance the durable watermark past the lost records.
	FailWrite
	// Crash requests a hard engine stop (no drain, no settle) from inside
	// the durability layer: the eligible event is one WAL record append,
	// so a seeded rule picks a reproducible crash point mid-workload.
	Crash
	numKinds
)

// String names the fault kind (used in metrics keys and rule parsing).
func (k Kind) String() string {
	switch k {
	case DropAck:
		return "drop_ack"
	case CorruptFrame:
		return "corrupt_frame"
	case FailAlloc:
		return "fail_alloc"
	case DelayEpochDone:
		return "delay_epoch_done"
	case StallTransfer:
		return "stall_transfer"
	case DropConn:
		return "drop_conn"
	case SlowWrite:
		return "slow_write"
	case TornWrite:
		return "torn_write"
	case FailFsync:
		return "fail_fsync"
	case FailWrite:
		return "fail_write"
	case Crash:
		return "crash"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds returns every injectable fault kind (chaos tests iterate it).
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind resolves a fault kind by its String name.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown kind %q", s)
}

// Rule arms one fault kind. Eligible events are counted per kind; the
// first After events pass untouched, then every Every-th event injects
// (Every <= 1 means every event), at most Limit injections (0 = unbounded).
// A non-zero Prob switches to probabilistic injection from the kind's
// seeded stream instead of the Every spacing; After and Limit still apply.
type Rule struct {
	After int
	Every int
	Limit int
	Prob  float64
}

// armed is one active rule plus its decision state.
type armed struct {
	rule Rule
	rng  *rand.Rand // per-kind stream, seeded from the injector seed
	seen int64      // eligible events observed
	done int64      // injections performed
}

// Injector decides, deterministically, which eligible events fail. The
// zero value is not useful; use New. A nil *Injector is valid at every
// hook point and never injects.
type Injector struct {
	seed int64

	mu    sync.Mutex
	rules [numKinds]*armed

	injected [numKinds]atomic.Int64
	checked  [numKinds]atomic.Int64
}

// New creates an injector whose probabilistic streams derive from seed.
// No fault fires until a rule is armed.
func New(seed int64) *Injector {
	return &Injector{seed: seed}
}

// Seed returns the seed the injector was created with.
func (i *Injector) Seed() int64 {
	if i == nil {
		return 0
	}
	return i.seed
}

// Arm installs (or replaces) the rule for one fault kind, resetting its
// decision state. Arming a nil injector is a no-op, matching the nil-safe
// check-side methods: callers never need to guard.
func (i *Injector) Arm(k Kind, r Rule) {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules[k] = &armed{
		rule: r,
		rng:  rand.New(rand.NewSource(i.seed*31 + int64(k))),
	}
}

// DisarmAll removes every rule; the injected counts remain.
func (i *Injector) DisarmAll() {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for k := range i.rules {
		i.rules[k] = nil
	}
}

// Should reports whether the current eligible event of kind k fails. It is
// nil-safe and consumes one event of the kind's counter when a rule is
// armed; callers place it exactly at the point where the fault manifests.
//
//eris:hotpath
func (i *Injector) Should(k Kind) bool {
	if i == nil {
		return false
	}
	i.checked[k].Add(1)
	i.mu.Lock() //eris:allowblock injector is nil in production; lock contention exists only under test fault schedules
	a := i.rules[k]
	if a == nil {
		i.mu.Unlock()
		return false
	}
	a.seen++
	if a.seen <= int64(a.rule.After) {
		i.mu.Unlock()
		return false
	}
	if a.rule.Limit > 0 && a.done >= int64(a.rule.Limit) {
		i.mu.Unlock()
		return false
	}
	inject := false
	if a.rule.Prob > 0 {
		inject = a.rng.Float64() < a.rule.Prob
	} else {
		every := int64(a.rule.Every)
		if every < 1 {
			every = 1
		}
		inject = (a.seen-int64(a.rule.After)-1)%every == 0
	}
	if inject {
		a.done++
	}
	i.mu.Unlock()
	if inject {
		i.injected[k].Add(1)
	}
	return inject
}

// Injected returns how many events of kind k were injected so far.
func (i *Injector) Injected(k Kind) int64 {
	if i == nil {
		return 0
	}
	return i.injected[k].Load()
}

// RegisterMetrics publishes per-kind injection counters on reg as
// faults.injected.<kind> and hook traffic as faults.checked.<kind>, so
// every injected failure is visible in the engine's metrics snapshot.
func (i *Injector) RegisterMetrics(reg *metrics.Registry) {
	if i == nil {
		return
	}
	for k := Kind(0); k < numKinds; k++ {
		k := k
		reg.CounterFunc("faults.injected."+k.String(), i.injected[k].Load)
		reg.CounterFunc("faults.checked."+k.String(), i.checked[k].Load)
	}
}
