package routing

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eris/internal/mem"
	"eris/internal/metrics"
)

// Descriptor layout (one uint64, updated with CAS as in the paper):
//
//	bit  63     : active — the buffer currently accepts writes
//	bits 62..31 : offset — bytes appended so far (32 bits)
//	bits 30..0  : writers — appends in flight (31 bits)
const (
	descActive     = uint64(1) << 63
	descWriterMask = uint64(1)<<31 - 1
)

//eris:hotpath
func descOffset(d uint64) uint64 { return (d >> 31) & (1<<32 - 1) }

// Inbox is one AEU's pair of incoming data command buffers.
type Inbox struct {
	bufs     [2][]byte
	desc     [2]atomic.Uint64
	writable atomic.Int32

	// Synthetic addresses of the two buffers (homed on the owner's node)
	// for cost accounting.
	blocks [2]mem.Block

	// The overflow queue takes what does not fit in the writable buffer, so
	// a producer never waits on the owner; its use is counted so benchmarks
	// can report it. The owner's next Swap drains it after the buffer.
	overflowMu sync.Mutex
	overflow   []byte
	overflowed atomic.Bool // overflow is non-empty: appends join it, and Pending skips the lock

	// Idle parking (see DESIGN.md "Idle strategy and wake-up protocol").
	// The owner sets parked before it re-checks its wake sources and blocks
	// on wake; a producer makes its work visible first and then calls Wake,
	// which loads parked and sends only when it is set. The channel holds
	// one token: a second producer finding it full knows the owner will
	// wake anyway. idle is the owner's reusable park-timeout timer.
	parked atomic.Bool
	wake   chan struct{}
	idle   *time.Timer

	// Counters, registered on the engine's metrics registry under
	// routing.inbox.<aeu>.*.
	appends   *metrics.Counter
	bytes     *metrics.Counter
	swaps     *metrics.Counter
	overflows *metrics.Counter
	oversized *metrics.Counter
	casRetry  *metrics.Counter
}

// newInbox builds an inbox with two size-byte buffers whose backing blocks
// are allocated on the owner's node manager; its counters register on reg
// under the owning AEU's id.
func newInbox(mgr *mem.Manager, size int, reg *metrics.Registry, id uint32) *Inbox {
	prefix := fmt.Sprintf("routing.inbox.%d.", id)
	in := &Inbox{
		wake:      make(chan struct{}, 1),
		appends:   reg.Counter(prefix + "appends"),
		bytes:     reg.Counter(prefix + "bytes"),
		swaps:     reg.Counter(prefix + "swaps"),
		overflows: reg.Counter(prefix + "overflows"),
		oversized: reg.Counter(prefix + "oversized"),
		casRetry:  reg.Counter(prefix + "cas_retries"),
	}
	for i := range in.bufs {
		in.bufs[i] = make([]byte, size)
		in.blocks[i] = mgr.Alloc(int64(size))
	}
	in.desc[0].Store(descActive)
	return in
}

// Capacity returns the size of one of the two buffers.
func (in *Inbox) Capacity() int { return len(in.bufs[0]) }

// Append copies data into the writable buffer using the latch-free
// descriptor protocol. It never waits: data that does not fit goes to the
// overflow queue, and while that queue is non-empty every append joins it,
// so one producer's appends reach the owner in the order it made them.
//
//eris:hotpath
func (in *Inbox) Append(data []byte) {
	size := uint64(len(data))
	if size == 0 {
		return
	}
	if len(data) > len(in.bufs[0]) {
		in.oversized.Inc()
		in.appendOverflow(data)
		return
	}
	for {
		// Load overflowed before writable: Swap moves writable before it
		// clears overflowed, so an append that finds the queue drained also
		// finds the buffer the drain left writable.
		if in.overflowed.Load() {
			in.appendOverflow(data)
			return
		}
		w := in.writable.Load()
		d := in.desc[w].Load()
		if d&descActive == 0 {
			// Swap stores the new writable index before it retires the old
			// buffer, so the reload finds the active one.
			continue
		}
		off := descOffset(d)
		if off+size > uint64(len(in.bufs[w])) {
			in.appendOverflow(data)
			return
		}
		// Reserve space and register as a writer in one CAS.
		nd := d + size<<31 + 1
		if !in.desc[w].CompareAndSwap(d, nd) {
			in.casRetry.Inc()
			continue
		}
		copy(in.bufs[w][off:], data)
		// Deregister: writers live in the low bits, so a plain decrement
		// cannot touch offset or active.
		in.desc[w].Add(^uint64(0))
		in.appends.Inc()
		in.bytes.Add(int64(size))
		in.Wake()
		return
	}
}

//eris:hotpath
func (in *Inbox) appendOverflow(data []byte) {
	in.overflowMu.Lock() //eris:allowblock overflow spill is already off the CAS fast path; bounded append under the lock
	in.overflow = append(in.overflow, data...)
	in.overflowed.Store(true)
	in.overflowMu.Unlock()
	in.overflows.Inc()
	in.bytes.Add(int64(len(data)))
	in.Wake()
}

// Wake unblocks the owner if it is parked. Every producer of work for the
// owning AEU calls it after the work is visible (appended bytes, a mailbox
// entry, a request slot, the stop flag): one atomic load, and a
// non-blocking send only when the owner published the parked flag.
//
//eris:hotpath
func (in *Inbox) Wake() {
	if in.parked.Load() {
		select {
		case in.wake <- struct{}{}:
		default:
		}
	}
}

// Pending reports whether a Swap would return data. The owner calls it
// between publishing the parked flag and blocking, and after each column
// scan pass (aeu.holdScans).
//
//eris:hotpath
func (in *Inbox) Pending() bool {
	return descOffset(in.desc[in.writable.Load()].Load()) > 0 || in.overflowed.Load()
}

// ParkResult says how a Park ended.
type ParkResult uint8

const (
	// ParkAborted: the re-check found work; the owner never blocked.
	ParkAborted ParkResult = iota
	// ParkWoken: a producer's Wake ended the block.
	ParkWoken
	// ParkTimedOut: the timeout ended the block and no producer had sent a
	// wake-up.
	ParkTimedOut
)

// Park blocks the owner until a producer calls Wake or timeout passes.
// recheck runs after the parked flag is published; when it reports work the
// owner does not block. Together with the order producers keep (work
// visible, then Wake) this loses no wake-up: either the producer's load
// sees the flag and sends, or the flag was stored after that load and
// recheck sees the producer's work.
func (in *Inbox) Park(timeout time.Duration, recheck func() bool) ParkResult {
	in.parked.Store(true)
	defer in.parked.Store(false)
	if recheck() {
		return ParkAborted
	}
	if in.idle == nil {
		in.idle = time.NewTimer(timeout)
	} else {
		in.idle.Reset(timeout)
	}
	select { //eris:allowblock the one place an AEU blocks: it is quiescent, every wake source calls Wake, and the timeout bounds the wait
	case <-in.wake:
		in.idle.Stop()
		return ParkWoken
	case <-in.idle.C:
	}
	// A producer may have sent while the expired timer was waiting for this
	// goroutine to run; that is a delivered wake-up, and taking the token
	// keeps it from ending the next park early.
	select {
	case <-in.wake:
		return ParkWoken
	default:
		return ParkTimedOut
	}
}

// Swap flips the double buffer: the previously writable buffer is drained
// (waiting for in-flight writers) and its payload returned, valid until the
// next Swap. Only the owning AEU calls Swap. Overflow-queued bytes are
// appended to the returned payload.
//
// The overflow lock is held across the whole flip. A producer's append that
// lands in the new buffer while the old one retires belongs to the next
// payload, and so must every later append of that producer: one that spills
// to the queue waits out the flip instead of joining this drain.
//
//eris:hotpath
func (in *Inbox) Swap() []byte {
	in.overflowMu.Lock() //eris:allowblock bounded: the flip waits only on appends already copying, and the common case finds the queue empty
	old := in.writable.Load()
	next := 1 - old
	// Activate the other buffer first so writers always find an active
	// buffer, then move the writable pointer, then retire the old buffer.
	// The next Swap's activation clears the old buffer's offset.
	in.desc[next].Store(descActive)
	in.writable.Store(next)
	var d uint64
	for {
		d = in.desc[old].Load()
		if in.desc[old].CompareAndSwap(d, d&^descActive) {
			break
		}
	}
	// Wait until in-flight appends to the old buffer complete.
	for {
		d = in.desc[old].Load()
		if d&descWriterMask == 0 {
			break
		}
		runtime.Gosched()
	}
	in.swaps.Inc()
	payload := in.bufs[old][:descOffset(d)]
	if len(in.overflow) > 0 {
		payload = append(append([]byte(nil), payload...), in.overflow...)
		in.overflow = in.overflow[:0]
		in.overflowed.Store(false)
	}
	in.overflowMu.Unlock()
	return payload
}

// InboxStats is a snapshot of inbox counters.
type InboxStats struct {
	Appends    int64
	Bytes      int64
	Swaps      int64
	Overflows  int64
	Oversized  int64 // appends larger than a whole buffer, diverted directly
	CASRetries int64
}

// Stats returns a snapshot of the inbox counters. The same values are
// available through the engine's metrics registry as routing.inbox.<aeu>.*.
func (in *Inbox) Stats() InboxStats {
	return InboxStats{
		Appends:    in.appends.Load(),
		Bytes:      in.bytes.Load(),
		Swaps:      in.swaps.Load(),
		Overflows:  in.overflows.Load(),
		Oversized:  in.oversized.Load(),
		CASRetries: in.casRetry.Load(),
	}
}
