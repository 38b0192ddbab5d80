package aeu

import (
	"time"

	"eris/internal/durable"
	"eris/internal/prefixtree"
	"eris/internal/routing"
)

// flushAckTimeout bounds the loop-exit wait for the final covering fsync.
const flushAckTimeout = 2 * time.Second

// parkedAck is a client write ack held back until the WAL fsync covering
// its records (SyncWrites): the write is applied and logged, but the
// client must not hear success before the log reaches disk.
type parkedAck struct {
	k        groupKey
	answered int
	seq      uint64
}

// SetWAL attaches the AEU's write-ahead log; must be called before Run. The
// log's group-commit writer wakes this AEU whenever it publishes a new
// durable watermark, so parked acks release without the loop polling for
// the fsync.
func (a *AEU) SetWAL(l *durable.Log) {
	a.wal = l
	a.walSync = l.Sync()
	l.NotifyDurable(a.inbox.Wake)
}

// CkptRequest asks the AEU loop to cut a checkpoint image at its next
// iteration boundary — between command groups, so the image is a
// consistent partition snapshot. Done closes once Image is filled.
type CkptRequest struct {
	Image durable.AEUImage
	Done  chan struct{}
}

// RequestCheckpoint hands the running loop a checkpoint request. Only the
// engine's checkpoint path calls it, one request at a time.
func (a *AEU) RequestCheckpoint() *CkptRequest {
	req := &CkptRequest{Done: make(chan struct{})}
	a.ckptReq.Store(req)
	a.inbox.Wake()
	return req
}

// serveCheckpoint answers a pending checkpoint request from inside the
// loop; reports whether one was served.
func (a *AEU) serveCheckpoint() bool {
	req := a.ckptReq.Swap(nil)
	if req == nil {
		return false
	}
	req.Image = a.SnapshotDurable()
	close(req.Done)
	return true
}

// SnapshotDurable cuts this AEU's checkpoint image: it rotates the WAL —
// sealing the generation that holds exactly the records at or below the
// returned stamp — then snapshots every partition. Called from the loop
// (via RequestCheckpoint) while running, or directly when the engine is
// quiescent; never concurrently with the loop.
func (a *AEU) SnapshotDurable() durable.AEUImage {
	var img durable.AEUImage
	var published uint64
	if a.wal != nil {
		img.Stamp, img.Gen = a.wal.Rotate()
		published = a.wal.PublishedStamp()
	}
	for _, p := range a.partList {
		switch p.Kind {
		case routing.RangePartitioned:
			t := durable.TreeImage{Obj: uint32(p.Object)}
			p.Tree.Scan(a.Core, 0, ^uint64(0), func(k, v uint64) bool {
				t.KVs = append(t.KVs, prefixtree.KV{Key: k, Value: v})
				return true
			})
			// Every retained link goes into the image, but an entry is
			// retired only once a *published* checkpoint covers its link
			// record: this image may yet be discarded (transfer overlap,
			// image timeout, checkpoint write error), and provenance
			// cleared on a discarded attempt would be lost to the retry.
			kept := p.links[:0]
			for _, le := range p.links {
				t.Links = append(t.Links, le.lr)
				if le.seq > published {
					kept = append(kept, le)
				}
			}
			p.links = kept
			img.Trees = append(img.Trees, t)
		case routing.SizePartitioned:
			img.Cols = append(img.Cols, durable.ColImage{
				Obj:    uint32(p.Object),
				Values: p.Col.Values(a.Core, p.Col.Snapshot()),
			})
		}
	}
	return img
}

// parkAck defers a client ack until seq is durable. It reports false when
// the ack should be sent immediately instead (no WAL, SyncWrites off, or
// nothing was logged).
//
//eris:hotpath
func (a *AEU) parkAck(k groupKey, answered int, seq uint64) bool {
	if !a.walSync || seq == 0 {
		return false
	}
	a.pendingAcks = append(a.pendingAcks, parkedAck{k: k, answered: answered, seq: seq})
	return true
}

// durableAckReady reports whether the oldest parked ack is already covered
// by the durable watermark (acks park in sequence order).
func (a *AEU) durableAckReady() bool {
	return len(a.pendingAcks) > 0 && a.pendingAcks[0].seq <= a.wal.DurableSeq()
}

// releaseDurableAcks answers every parked ack covered by the WAL's
// published durable sequence number; reports whether any released.
func (a *AEU) releaseDurableAcks() bool {
	if len(a.pendingAcks) == 0 {
		return false
	}
	covered := a.wal.DurableSeq()
	kept := a.pendingAcks[:0]
	released := false
	for _, pa := range a.pendingAcks {
		if pa.seq <= covered {
			a.reply(pa.k, nil, pa.answered)
			released = true
		} else {
			kept = append(kept, pa)
		}
	}
	a.pendingAcks = kept
	return released
}

// flushDurableAcks releases the remaining parked acks at loop exit after a
// clean stop: the writes are applied and logged, so waiting briefly for
// the covering fsync and acking is strictly more truthful than dropping
// them. A crash-stopped engine never gets here (the manager is already
// crashed and Flush fails), leaving the acks unanswered — exactly the
// ambiguity a real crash produces.
func (a *AEU) flushDurableAcks() {
	if len(a.pendingAcks) == 0 || a.wal == nil {
		return
	}
	if err := a.wal.Flush(flushAckTimeout); err != nil {
		a.pendingAcks = a.pendingAcks[:0]
		return
	}
	a.releaseDurableAcks()
	a.pendingAcks = a.pendingAcks[:0]
}
