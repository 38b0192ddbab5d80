package core

import (
	"fmt"
	"sort"
	"time"

	"eris/internal/aeu"
	"eris/internal/durable"
	"eris/internal/prefixtree"
	"eris/internal/routing"
)

// imageWait bounds how long Checkpoint waits for one AEU loop to serve an
// image request before retrying the whole collection.
const imageWait = 2 * time.Second

// Durable exposes the durability manager (nil without a data directory).
func (e *Engine) Durable() *durable.Manager { return e.cfg.Durable }

// Checkpoint cuts an engine-wide fuzzy checkpoint and publishes it. Per-AEU
// images are requested through the running loops (each AEU snapshots its
// partitions at an iteration boundary, rotating its WAL so the image's
// stamp is its replay cut); on a quiescent engine they are cut directly.
// Images are fuzzy across AEUs, so the collection is bracketed by the
// per-object transfer stamps and retried until no payload moved while it
// ran. Column transfers carry no log records, making the
// bracket their only consistency mechanism. Range transfers do log
// handoff/link pairs, but the bracket is still required: a checkpoint cut
// with a range payload in flight could capture the source after its
// handoff (pruning the handoff's generation — the extraction is inside
// the image) while the target's image predates the link, and a crash
// before the link record reaches disk would then lose the whole moved
// range with nothing left to replay it from. Transfers in flight at
// *crash* time (rather than checkpoint time) are the case the handoff/
// link replay covers.
func (e *Engine) Checkpoint() error {
	mgr := e.cfg.Durable
	if mgr == nil {
		return nil
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		if mgr.Crashed() || mgr.Closed() {
			return fmt.Errorf("core: checkpoint on a crashed or closed durability manager")
		}
		data, err := e.collectImages()
		if err != nil {
			lastErr = err
			continue
		}
		return mgr.WriteCheckpoint(*data)
	}
	return fmt.Errorf("core: checkpoint: no stable image after 8 attempts: %w", lastErr)
}

// collectImages gathers one checkpoint's object metadata and per-AEU
// images, failing when a column or range transfer overlapped the
// collection.
func (e *Engine) collectImages() (*durable.CheckpointData, error) {
	// A payload afloat lands within an iteration or two of its target's
	// loop; wait that out (scheduling can stretch it past any fixed number
	// of short retries) instead of spending an attempt on it.
	gen1, inflight := e.xferStampAll()
	for waited := time.Duration(0); inflight != 0; waited += 200 * time.Microsecond {
		if waited > imageWait {
			return nil, fmt.Errorf("partition transfer in flight")
		}
		time.Sleep(200 * time.Microsecond)
		gen1, inflight = e.xferStampAll()
	}
	data := &durable.CheckpointData{AEUs: make([]durable.AEUImage, len(e.aeus))}
	if e.loopsUp.Load() {
		reqs := make([]*aeu.CkptRequest, len(e.aeus))
		for i, a := range e.aeus {
			reqs[i] = a.RequestCheckpoint()
		}
		deadline := time.After(imageWait)
		for i, r := range reqs {
			select {
			case <-r.Done:
				data.AEUs[i] = r.Image
			case <-deadline:
				return nil, fmt.Errorf("aeu %d image request timed out", i)
			}
		}
	} else {
		for i, a := range e.aeus {
			data.AEUs[i] = a.SnapshotDurable()
		}
	}
	gen2, inflight := e.xferStampAll()
	if gen1 != gen2 || inflight != 0 {
		return nil, fmt.Errorf("partition transfer overlapped the image collection")
	}
	for id, meta := range e.objects {
		kind := durable.KindRange
		if meta.kind == routing.SizePartitioned {
			kind = durable.KindSize
		}
		data.Objects = append(data.Objects, durable.ObjectMeta{
			ID: uint32(id), Kind: kind, Domain: meta.domain,
		})
	}
	sort.Slice(data.Objects, func(i, j int) bool { return data.Objects[i].ID < data.Objects[j].ID })
	return data, nil
}

// xferStampAll is xferStamp summed over every object: the whole-engine
// version of the bracket client scans use.
func (e *Engine) xferStampAll() (gen, inflight int64) {
	for id := range e.objects {
		g, f := e.xferStamp(id)
		gen += g
		inflight += f
	}
	return gen, inflight
}

// checkpointLoop runs periodic checkpoints until Stop. It selects on its
// own reference to the stop channel: stopCheckpoints nils the field, and
// reading it from here would both race and lose the close signal.
func (e *Engine) checkpointLoop(stop <-chan struct{}) {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// Best effort: a failed periodic checkpoint (e.g. continuous
			// column balancing) leaves the previous one in place; the log
			// tails just stay longer.
			_ = e.Checkpoint()
		}
	}
}

// stopCheckpoints ends the periodic ticker and waits out an in-flight
// checkpoint, so no image request dangles once the loops exit. Callers
// hold stopMu.
func (e *Engine) stopCheckpoints() {
	if e.ckptStop != nil {
		close(e.ckptStop)
		e.ckptStop = nil
	}
	e.ckptMu.Lock()
	//lint:ignore SA2001 barrier: wait for an in-flight checkpoint to finish
	e.ckptMu.Unlock()
}

// CrashStop hard-stops the engine the way kill -9 would: the durability
// layer freezes first (unwritten log buffers vanish; with the torn_write
// fault armed, each log's unsynced tail is torn mid-record), in-flight
// client calls fail, and the loops exit with no settle rounds — transfer
// payloads still in flight die with the buffers. The data directory is
// left exactly as a crash would leave it, ready to be reopened.
func (e *Engine) CrashStop() {
	e.stopMu.Lock()
	defer e.stopMu.Unlock()
	if !e.started || e.stopped {
		return
	}
	e.stopped = true
	e.crashed = true
	e.stopCheckpoints()
	if e.cfg.Durable != nil {
		e.cfg.Durable.Crash()
	}
	e.failPending()
	if e.watched {
		e.balancer.Stop()
	}
	for _, a := range e.aeus {
		a.Stop()
	}
	e.wg.Wait()
	e.loopsUp.Store(false)
	if e.metricsRv != nil {
		e.metricsRv.Close()
		e.metricsRv = nil
	}
}

// Crashed reports whether the engine was stopped via CrashStop.
func (e *Engine) Crashed() bool {
	e.stopMu.Lock()
	defer e.stopMu.Unlock()
	return e.crashed
}

// Restore loads recovered durable state into a fresh, not-yet-started
// engine: each object is re-created with its recovered metadata and its
// merged tuple set is distributed over the new uniform partitioning. The
// bounds and routing tables are therefore rebuilt from scratch — recovery
// does not try to reproduce the pre-crash balancer placement, which also
// makes restore independent of the AEU count the data was written under.
func (e *Engine) Restore(rec *durable.Recovered) error {
	if e.started {
		return fmt.Errorf("core: Restore after Start")
	}
	if rec == nil {
		return nil
	}
	for _, o := range rec.Objects {
		id := routing.ObjectID(o.ID)
		switch o.Kind {
		case durable.KindRange:
			if err := e.CreateIndex(id, o.Domain); err != nil {
				return err
			}
			e.restoreKVs(id, o.KVs)
		case durable.KindSize:
			if err := e.CreateColumn(id); err != nil {
				return err
			}
			e.restoreColumn(id, o.ColValues)
		default:
			return fmt.Errorf("core: recovered object %d has unknown kind %d", o.ID, o.Kind)
		}
	}
	return nil
}

// restoreKVs applies a recovered (key-sorted) tuple set directly to the
// owning partitions, like the bulk loaders: the engine is not started, so
// partition trees are written without routing.
func (e *Engine) restoreKVs(id routing.ObjectID, kvs []prefixtree.KV) {
	const batch = 256
	buf := make([]prefixtree.KV, 0, batch)
	var cur *aeu.AEU
	flush := func() {
		if cur != nil && len(buf) > 0 {
			cur.Partition(id).Tree.UpsertBatch(cur.Core, buf)
			buf = buf[:0]
		}
	}
	for _, kv := range kvs {
		a := e.aeus[e.router.Owner(id, kv.Key)]
		if a != cur || len(buf) == batch {
			flush()
			cur = a
		}
		buf = append(buf, kv)
	}
	flush()
}

// restoreColumn splits a recovered value set evenly over the column
// partitions, mirroring LoadColumnUniform.
func (e *Engine) restoreColumn(id routing.ObjectID, values []uint64) {
	n := len(e.aeus)
	if n == 0 || len(values) == 0 {
		return
	}
	per := len(values) / n
	off := 0
	for i, a := range e.aeus {
		end := off + per
		if i == n-1 {
			end = len(values)
		}
		p := a.Partition(id)
		for off < end {
			chunk := end - off
			if chunk > 4096 {
				chunk = 4096
			}
			p.Col.Append(a.Core, values[off:off+chunk])
			off += chunk
		}
	}
}
