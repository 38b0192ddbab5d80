// Package durable is the ERIS durability subsystem: per-AEU write-ahead
// logs with group commit, engine-wide fuzzy checkpoints, and crash
// recovery. The paper punts durability entirely; this package adds it
// without giving up the engine's coordination-free design. Each AEU logs
// only the partitions it exclusively owns — the same locality argument the
// paper uses for memory management — so there is one log per AEU, appended
// from the AEU loop and never contended. Cross-AEU consistency comes from
// the ownership-transfer protocol itself: a partition range moves between
// logs via a logged handoff record at the source and a logged link record
// (with payload) at the target, both stamped with the same transfer id, so
// recovery can reassemble a consistent global state from per-AEU replays.
//
// Log format: length-prefixed CRC32C (Castagnoli) frames. Each frame is
//
//	[len u32][crc u32][payload]
//
// with crc over the payload and the payload starting with a global
// sequence number, a record kind and the object id. Replay stops at the
// first frame that fails to parse or verify — a torn tail from a crash —
// and never trusts anything after it.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"eris/internal/faults"
	"eris/internal/prefixtree"
)

// errInjectedWrite is the error a fail_write fault substitutes for the
// file write's result.
var errInjectedWrite = errors.New("durable: injected write failure")

// Record kinds.
const (
	recUpsert byte = 1 // applied upsert batch: count, count x (key, value)
	recDelete byte = 2 // applied delete batch: count, count x key
	// recHandoff is logged at the source AEU when it extracts [lo, hi] for
	// a transfer: the record's own sequence number is the transfer id (xid)
	// that the target's link record will carry. It has no payload — replay
	// re-derives the moved tuples from the replayed source state.
	recHandoff byte = 3 // lo, hi, target AEU
	// recLink is logged at the target AEU when a transfer payload links:
	// lo, hi, xid (the source's handoff sequence number), then the payload
	// key/value pairs. The payload makes the record self-contained: a
	// transfer whose handoff record was lost to a crash still replays.
	recLink byte = 4 // lo, hi, xid, count, count x (key, value)
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeader = 8 // len u32 + crc u32
	// maxRecordLen bounds one frame; larger length prefixes are treated as
	// corruption (torn tail), which also keeps hostile replay input from
	// provoking huge allocations.
	maxRecordLen = 1 << 28
)

// segment is one batch of encoded frames bound for a specific log
// generation. The AEU appends into the open segment; the writer goroutine
// swaps it out, writes and fsyncs it, then recycles the buffer.
type segment struct {
	gen     int
	data    []byte
	last    uint64 // last sequence number encoded into data
	records int
}

// Log is one AEU's write-ahead log. Append* methods are called only from
// the owning AEU's loop goroutine; the writer goroutine batches appended
// frames and fsyncs them (group commit), then publishes the covered
// sequence number through DurableSeq. The AEU never blocks per record.
type Log struct {
	mgr *Manager
	id  int

	mu      sync.Mutex
	cur     *segment
	queue   []*segment
	spareQ  []*segment // recycled queue backing array (ping-pong with queue)
	free    []*segment
	gen     int
	lastSeq uint64
	closed  bool
	crashed bool

	durable atomic.Uint64
	// notify, when set, runs on the writer goroutine after each advance of
	// durable (the owning AEU's wake-up).
	notify atomic.Pointer[func()]

	wake chan struct{}
	// hurry ends a commit group the writer is gathering (see
	// asyncGroupWindow), so that no caller waiting on the writer waits
	// out the window.
	hurry chan struct{}
	done  chan struct{}

	// Writer-goroutine state (no locking needed beyond the queue swap).
	file       *os.File
	fileGen    int
	writtenOff int64
	durableOff int64
	lastErr    error
}

func newLog(mgr *Manager, id, startGen int) *Log {
	l := &Log{
		mgr:   mgr,
		id:    id,
		gen:   startGen,
		wake:  make(chan struct{}, 1),
		hurry: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go l.writer()
	return l
}

// DurableSeq returns the highest sequence number covered by an fsync.
func (l *Log) DurableSeq() uint64 { return l.durable.Load() }

// NotifyDurable installs fn to be called from the writer goroutine every
// time the durable watermark advances. fn must not block.
func (l *Log) NotifyDurable(fn func()) { l.notify.Store(&fn) }

// Sync reports whether acks must wait for the covering fsync.
func (l *Log) Sync() bool { return l.mgr.syncWrites }

// PublishedStamp returns this AEU's image stamp in the last durably
// published checkpoint (0 before one publishes this session). Link
// provenance at or below it is persisted and safe to drop.
func (l *Log) PublishedStamp() uint64 { return l.mgr.publishedStamp(l.id) }

// open returns the segment for the current generation, growing a frame of
// payload length n at its end; the returned slice is the payload area.
//
//eris:hotpath
func (l *Log) frame(n int) (*segment, []byte) {
	s := l.cur
	if s == nil || s.gen != l.gen {
		if s != nil {
			l.queue = append(l.queue, s)
		}
		if k := len(l.free); k > 0 {
			s = l.free[k-1]
			l.free = l.free[:k-1]
			s.data = s.data[:0]
			s.last, s.records = 0, 0
		} else {
			s = &segment{} //eris:allowalloc freelist-miss fallback; segments recycle through l.free after the first checkpoints
		}
		s.gen = l.gen
		l.cur = s
	}
	off := len(s.data)
	need := off + frameHeader + n
	if cap(s.data) < need {
		grown := make([]byte, off, need*2) //eris:allowalloc segment growth doubles capacity; amortized
		copy(grown, s.data)
		s.data = grown
	}
	s.data = s.data[:need]
	return s, s.data[off:]
}

// sealFrame fills the header of a frame whose payload was just encoded.
//
//eris:hotpath
func sealFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// append encodes one record and signals the writer; it returns the
// record's sequence number. kvLen is the kind-specific body length.
//
//eris:hotpath
func (l *Log) appendRecord(kind byte, obj uint32, body int, enc func(b []byte)) uint64 {
	seq := l.mgr.seq.Add(1)
	l.mu.Lock() //eris:allowblock bounded queue-swap critical section; the writer goroutine does all I/O outside it
	if l.closed || l.crashed {
		l.mu.Unlock()
		return seq
	}
	s, frame := l.frame(13 + body)
	p := frame[frameHeader:]
	binary.LittleEndian.PutUint64(p[0:8], seq)
	p[8] = kind
	binary.LittleEndian.PutUint32(p[9:13], obj)
	enc(p[13:])
	sealFrame(frame)
	s.last = seq
	s.records++
	l.lastSeq = seq
	l.mu.Unlock()
	l.mgr.records.Add(1)
	if l.mgr.faults.Should(faults.Crash) {
		l.mgr.crashReq.Store(true)
	}
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return seq
}

// AppendUpsert logs an applied upsert batch.
//
//eris:hotpath
func (l *Log) AppendUpsert(obj uint32, kvs []prefixtree.KV) uint64 {
	return l.appendRecord(recUpsert, obj, 4+16*len(kvs), func(b []byte) { //eris:allowalloc non-escaping encoder closure; appendRecord invokes it synchronously before returning
		binary.LittleEndian.PutUint32(b[0:4], uint32(len(kvs)))
		off := 4
		for _, kv := range kvs {
			binary.LittleEndian.PutUint64(b[off:], kv.Key)
			binary.LittleEndian.PutUint64(b[off+8:], kv.Value)
			off += 16
		}
	})
}

// AppendDelete logs an applied delete batch.
//
//eris:hotpath
func (l *Log) AppendDelete(obj uint32, keys []uint64) uint64 {
	return l.appendRecord(recDelete, obj, 4+8*len(keys), func(b []byte) { //eris:allowalloc non-escaping encoder closure; appendRecord invokes it synchronously before returning
		binary.LittleEndian.PutUint32(b[0:4], uint32(len(keys)))
		off := 4
		for _, k := range keys {
			binary.LittleEndian.PutUint64(b[off:], k)
			off += 8
		}
	})
}

// AppendHandoff logs the extraction of [lo, hi] for a transfer to target;
// the returned sequence number is the transfer id the link record carries.
//
//eris:hotpath
func (l *Log) AppendHandoff(obj uint32, lo, hi uint64, target uint32) uint64 {
	return l.appendRecord(recHandoff, obj, 20, func(b []byte) { //eris:allowalloc non-escaping encoder closure; appendRecord invokes it synchronously before returning
		binary.LittleEndian.PutUint64(b[0:8], lo)
		binary.LittleEndian.PutUint64(b[8:16], hi)
		binary.LittleEndian.PutUint32(b[16:20], target)
	})
}

// AppendLink logs a linked transfer payload for [lo, hi] under xid.
//
//eris:hotpath
func (l *Log) AppendLink(obj uint32, lo, hi, xid uint64, kvs []prefixtree.KV) uint64 {
	return l.appendRecord(recLink, obj, 28+16*len(kvs), func(b []byte) { //eris:allowalloc non-escaping encoder closure; appendRecord invokes it synchronously before returning
		binary.LittleEndian.PutUint64(b[0:8], lo)
		binary.LittleEndian.PutUint64(b[8:16], hi)
		binary.LittleEndian.PutUint64(b[16:24], xid)
		binary.LittleEndian.PutUint32(b[24:28], uint32(len(kvs)))
		off := 28
		for _, kv := range kvs {
			binary.LittleEndian.PutUint64(b[off:], kv.Key)
			binary.LittleEndian.PutUint64(b[off+8:], kv.Value)
			off += 16
		}
	})
}

// Rotate seals the current generation and directs subsequent appends to a
// new one. Called by the owning AEU at its checkpoint-snapshot moment, so
// the sealed generation holds exactly the records at or below the returned
// stamp — the checkpoint's replay cut. It returns the stamp (last appended
// sequence number) and the sealed generation.
func (l *Log) Rotate() (stamp uint64, gen int) {
	l.mu.Lock() //eris:allowblock bounded generation-seal critical section at the checkpoint boundary; no I/O under the lock
	stamp, gen = l.lastSeq, l.gen
	if l.cur != nil {
		l.queue = append(l.queue, l.cur)
		l.cur = nil
	}
	l.gen++
	l.mu.Unlock()
	l.hurryWriter()
	return stamp, gen
}

// Flush blocks until every record appended before the call is covered by
// an fsync (or the timeout expires).
func (l *Log) Flush(timeout time.Duration) error {
	l.mu.Lock() //eris:allowblock Flush runs off the steady-state loop: AEUs call it once at shutdown (flushDurableAcks)
	want := l.lastSeq
	l.mu.Unlock()
	l.hurryWriter()
	deadline := time.Now().Add(timeout)
	for l.durable.Load() < want {
		l.mu.Lock() //eris:allowblock Flush runs off the steady-state loop: AEUs call it once at shutdown (flushDurableAcks)
		dead := l.crashed || l.closed
		l.mu.Unlock()
		if dead {
			return fmt.Errorf("durable: log %d closed with unsynced records", l.id)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("durable: log %d flush timed out at seq %d < %d", l.id, l.durable.Load(), want)
		}
		time.Sleep(100 * time.Microsecond) //eris:allowblock Flush runs off the steady-state loop: AEUs call it once at shutdown (flushDurableAcks)
	}
	return nil
}

// close shuts the writer down after draining pending segments (clean
// shutdown); crash shuts it down dropping them (crash simulation).
func (l *Log) close() {
	l.mu.Lock()
	if l.closed || l.crashed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	l.hurryWriter()
	<-l.done
}

// crash freezes the writer: pending (unwritten) segments are dropped —
// they model buffered bytes a real crash never hands to the OS — and the
// file is left at whatever the writer managed to write. The Manager then
// tears or keeps the unsynced tail.
func (l *Log) crash() {
	l.mu.Lock()
	if l.closed || l.crashed {
		l.mu.Unlock()
		return
	}
	l.crashed = true
	l.queue = nil
	l.cur = nil
	l.mu.Unlock()
	l.hurryWriter()
	<-l.done
}

// take swaps out every pending segment (sealing the open one). The queue's
// backing array ping-pongs with the one recycle returned, so steady-state
// group commit allocates nothing.
func (l *Log) take() ([]*segment, bool, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil && len(l.cur.data) > 0 {
		l.queue = append(l.queue, l.cur)
		l.cur = nil
	}
	segs := l.queue
	if l.spareQ != nil {
		l.queue = l.spareQ[:0]
		l.spareQ = nil
	} else {
		l.queue = nil
	}
	return segs, l.closed, l.crashed
}

// recycle returns written segments to the freelist and the batch slice to
// the queue ping-pong.
func (l *Log) recycle(segs []*segment) {
	l.mu.Lock()
	for i, s := range segs {
		s.data = s.data[:0]
		if len(l.free) < 4 {
			l.free = append(l.free, s)
		}
		segs[i] = nil
	}
	if segs != nil {
		l.spareQ = segs[:0]
	}
	l.mu.Unlock()
}

// asyncGroupWindow is how long the writer of a log without SyncWrites lets
// records gather after a wake-up before it writes them as one group: it
// bounds the extra commit group a crash can lose. Rotate, Flush, close and
// crash cut the window short.
const asyncGroupWindow = 200 * time.Microsecond

// hurryWriter wakes the writer and ends a commit group it is gathering.
func (l *Log) hurryWriter() {
	select {
	case l.hurry <- struct{}{}:
	default:
	}
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// writer is the group-commit goroutine: it batches whatever accumulated
// since the last round, writes it, fsyncs once, and publishes the covered
// sequence number. One fsync covers every record of the batch — the group.
func (l *Log) writer() {
	defer close(l.done)
	window := time.NewTimer(asyncGroupWindow)
	window.Stop()
	for {
		<-l.wake
		if !l.mgr.syncWrites {
			// No ack waits on this log: let a commit group gather
			// instead of paying a write and an fsync per record.
			window.Reset(asyncGroupWindow)
			select {
			case <-window.C:
			case <-l.hurry:
				window.Stop()
			}
		}
		for {
			segs, closed, crashed := l.take()
			if crashed {
				return // file left as written; Manager tears the tail
			}
			if len(segs) == 0 {
				if closed {
					l.closeFile()
					return
				}
				break
			}
			if !l.writeBatch(segs) {
				return // crash raced the batch; file left as written, Manager tears the tail
			}
			l.recycle(segs)
		}
	}
}

// writeBatch writes and fsyncs a batch of segments, switching files at
// generation boundaries (the previous generation is fsynced before the
// next opens, so at most the newest file can ever have an unsynced tail).
// Like fsync, writes retry until they succeed: a dropped segment would
// otherwise let the next batch's fsync advance the durable watermark past
// records that never reached the OS, releasing acks for lost data. It
// reports false only when a crash raced the batch — then nothing about
// this batch is published and the segments die with the simulated buffers.
func (l *Log) writeBatch(segs []*segment) bool {
	var last uint64
	var bytes int64
	var records int
	for _, s := range segs {
		if !l.ensureFileRetry(s.gen) || !l.writeAll(s.data) {
			return false
		}
		bytes += int64(len(s.data))
		records += s.records
		if s.last > last {
			last = s.last
		}
	}
	if !l.fsync() {
		return false
	}
	if last > 0 {
		l.durable.Store(last)
		if fn := l.notify.Load(); fn != nil {
			(*fn)()
		}
	}
	l.durableOff = l.writtenOff
	l.mgr.bytesLogged.Add(bytes)
	l.mgr.fsyncs.Add(1)
	l.mgr.observeGroup(int64(records))
	return true
}

// writeAll appends data to the open file, retrying through short writes
// and transient errors (ENOSPC, injected fail_write). It reports false
// when a crash raced the retry loop.
func (l *Log) writeAll(data []byte) bool {
	for len(data) > 0 {
		var n int
		var err error
		if l.mgr.faults.Should(faults.FailWrite) {
			err = errInjectedWrite
		} else {
			n, err = l.file.Write(data)
		}
		l.writtenOff += int64(n)
		data = data[n:]
		if err == nil {
			continue
		}
		l.lastErr = err
		l.mgr.logErrors.Add(1)
		if l.isCrashed() {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// ensureFileRetry opens the generation's log file, retrying transient
// failures; false means a crash raced the retry loop.
func (l *Log) ensureFileRetry(gen int) bool {
	for {
		err := l.ensureFile(gen)
		if err == nil {
			return true
		}
		l.lastErr = err
		l.mgr.logErrors.Add(1)
		if l.isCrashed() {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// fsync syncs the open file, retrying through injected failures: a parked
// ack must never release on a failed sync, and a transient failure must
// not lose the records behind it. It reports false when a crash raced the
// retry loop (the sync never succeeded).
func (l *Log) fsync() bool {
	for {
		if l.mgr.faults.Should(faults.FailFsync) {
			l.mgr.fsyncFailures.Add(1)
		} else if err := l.file.Sync(); err != nil {
			l.mgr.fsyncFailures.Add(1)
			l.lastErr = err
		} else {
			return true
		}
		if l.isCrashed() {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// isCrashed reports whether crash() was called.
func (l *Log) isCrashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed
}

// ensureFile opens the log file for generation gen, fsyncing and closing
// the previous one first.
func (l *Log) ensureFile(gen int) error {
	if l.file != nil && l.fileGen == gen {
		return nil
	}
	l.closeFile()
	f, err := os.OpenFile(l.mgr.walPath(l.id, gen), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.file = f
	l.fileGen = gen
	l.writtenOff = 0
	l.durableOff = 0
	l.mgr.syncDir()
	return nil
}

func (l *Log) closeFile() {
	if l.file == nil {
		return
	}
	if l.fsync() {
		l.durableOff = l.writtenOff
	}
	l.file.Close()
	l.file = nil
}
