package durable

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"time"

	"eris/internal/prefixtree"
)

// RecoveredObject is one data object's reconstructed durable state.
type RecoveredObject struct {
	ID     uint32
	Kind   byte
	Domain uint64
	Name   string
	// KVs is the merged tuple set of a range object, sorted by key.
	KVs []prefixtree.KV
	// ColValues is the concatenated value set of a size object.
	ColValues []uint64
}

// Recovered is the outcome of Recover: the durable state of every object
// known to the latest checkpoint, with per-AEU log tails replayed on top.
type Recovered struct {
	Objects []RecoveredObject
	// Checkpoint is the manifest number recovery started from.
	Checkpoint uint64
	// ReplayRecords / ReplayBytes / TornTails summarize the log replay.
	ReplayRecords int64
	ReplayBytes   int64
	TornTails     int64
}

// stashEntry is an extracted-but-not-yet-linked transfer reconstructed
// from a replayed handoff record: the moved tuples wait here for the
// matching link record (possibly in another AEU's log).
type stashEntry struct {
	obj    uint32
	target int
	lo, hi uint64
	kvs    map[uint64]uint64
}

// aeuState is one AEU's replayed view.
type aeuState struct {
	trees map[uint32]map[uint64]uint64 // obj -> key -> value
	links map[uint32][]LinkRange       // obj -> applied transfer ranges
	cols  map[uint32][]uint64
}

func newAEUState() *aeuState {
	return &aeuState{
		trees: make(map[uint32]map[uint64]uint64),
		links: make(map[uint32][]LinkRange),
		cols:  make(map[uint32][]uint64),
	}
}

func (s *aeuState) tree(obj uint32) map[uint64]uint64 {
	t := s.trees[obj]
	if t == nil {
		t = make(map[uint64]uint64)
		s.trees[obj] = t
	}
	return t
}

// Recover loads the latest checkpoint and replays every AEU's log tail on
// top of it. It returns nil on a fresh directory (no manifest). The caller
// feeds the result to the engine's restore path before serving.
//
// Replay is idempotent by sequence number: only records with seq above the
// AEU image's stamp apply. Cross-AEU transfers reassemble through their
// handoff/link record pairs; a transfer whose link record was lost resolves
// through the handoff stash, and conflicting copies of a key (possible when
// exactly one side of a transfer reached disk) resolve to the AEU holding
// the highest-xid link covering the key.
func (m *Manager) Recover() (*Recovered, error) {
	m.mu.Lock()
	man := m.man
	m.mu.Unlock()
	if man == nil {
		return nil, nil
	}
	start := time.Now()
	ckpt, err := readCheckpointFile(filepath.Join(m.dir, man.Checkpoint))
	if err != nil {
		return nil, err
	}

	states := make(map[int]*aeuState)
	stash := make(map[uint64]*stashEntry)

	for aeu := range ckpt.AEUs {
		st := newAEUState()
		states[aeu] = st
		for _, t := range ckpt.AEUs[aeu].Trees {
			tree := st.tree(t.Obj)
			for _, kv := range t.KVs {
				tree[kv.Key] = kv.Value
			}
			st.links[t.Obj] = append(st.links[t.Obj], t.Links...)
		}
		for _, c := range ckpt.AEUs[aeu].Cols {
			st.cols[c.Obj] = append(st.cols[c.Obj], c.Values...)
		}
	}

	// Replay log tails: for each AEU, the generations after its image's
	// sealed generation, records above its stamp. AEUs with logs on disk
	// but no image (created after the checkpoint's AEU count — does not
	// happen with a fixed topology, but cheap to honor) replay from zero.
	aeus, err := m.walAEUs()
	if err != nil {
		return nil, err
	}
	var rec Recovered
	maxSeq := man.NextSeq
	for _, img := range ckpt.AEUs {
		if img.Stamp > maxSeq {
			maxSeq = img.Stamp
		}
	}
	for _, aeu := range aeus {
		st := states[aeu]
		if st == nil {
			st = newAEUState()
			states[aeu] = st
		}
		var stamp uint64
		var gen int
		if aeu < len(ckpt.AEUs) {
			stamp, gen = ckpt.AEUs[aeu].Stamp, ckpt.AEUs[aeu].Gen
		}
		gens, err := m.logGensFor(aeu, gen)
		if err != nil {
			return nil, err
		}
		for _, g := range gens {
			raw, err := os.ReadFile(m.walPath(aeu, g))
			if err != nil {
				return nil, err
			}
			n, bytes, last, torn := m.replayFile(raw, aeu, stamp, st, stash)
			rec.ReplayRecords += n
			rec.ReplayBytes += bytes
			if last > maxSeq {
				maxSeq = last
			}
			if torn {
				// Nothing after a torn frame can be trusted — not even
				// later generations of this log (they should not exist:
				// generations are fsynced before the next one opens).
				rec.TornTails++
				break
			}
		}
	}
	// Never hand out a sequence number at or below one already on disk:
	// seqs are idempotency keys and transfer ids, and the replayed tails
	// stay on disk until the next checkpoint prunes them.
	for {
		cur := m.seq.Load()
		if maxSeq <= cur || m.seq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}

	// Complete orphaned transfers: a handoff whose link record never made
	// it to disk. The payload moves to the target, but only keys the
	// target does not already hold — if the target's state includes any
	// newer writes to the range, those must win.
	orphans := make([]uint64, 0, len(stash))
	for xid := range stash {
		orphans = append(orphans, xid)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, xid := range orphans {
		e := stash[xid]
		if linkApplied(states, xid) {
			continue
		}
		st := states[e.target]
		if st == nil {
			st = newAEUState()
			states[e.target] = st
		}
		tree := st.tree(e.obj)
		for k, v := range e.kvs {
			if _, ok := tree[k]; !ok {
				tree[k] = v
			}
		}
		st.links[e.obj] = append(st.links[e.obj], LinkRange{Xid: xid, Lo: e.lo, Hi: e.hi})
	}

	// Global merge per object. A key present in several AEUs' replayed
	// states (one side of a transfer on disk, the other lost) belongs to
	// the AEU holding the highest-xid link covering it — the most recent
	// owner whose ownership is durable.
	aeuIDs := make([]int, 0, len(states))
	for id := range states {
		aeuIDs = append(aeuIDs, id)
	}
	sort.Ints(aeuIDs)

	rec.Checkpoint = man.N
	for _, o := range ckpt.Objects {
		out := RecoveredObject{ID: o.ID, Kind: o.Kind, Domain: o.Domain, Name: o.Name}
		switch o.Kind {
		case KindRange:
			out.KVs = mergeObject(states, aeuIDs, o.ID)
		case KindSize:
			for _, id := range aeuIDs {
				out.ColValues = append(out.ColValues, states[id].cols[o.ID]...)
			}
		}
		rec.Objects = append(rec.Objects, out)
	}

	m.replayRecords.Add(rec.ReplayRecords)
	m.replayBytes.Add(rec.ReplayBytes)
	m.tornTails.Add(rec.TornTails)
	m.recoveryNS.Add(time.Since(start).Nanoseconds())
	return &rec, nil
}

// linkApplied reports whether any AEU's state holds a link with xid
// (transfer ids are globally unique: they are WAL sequence numbers).
func linkApplied(states map[int]*aeuState, xid uint64) bool {
	for _, st := range states {
		for _, lrs := range st.links {
			for _, lr := range lrs {
				if lr.Xid == xid {
					return true
				}
			}
		}
	}
	return false
}

// mergeObject folds every AEU's replayed map of one range object into a
// single sorted tuple set, resolving cross-AEU key conflicts by link xid.
func mergeObject(states map[int]*aeuState, aeuIDs []int, obj uint32) []prefixtree.KV {
	merged := make(map[uint64]uint64)
	var conflicts map[uint64]bool
	for _, id := range aeuIDs {
		for k, v := range states[id].trees[obj] {
			if _, dup := merged[k]; dup {
				if conflicts == nil {
					conflicts = make(map[uint64]bool)
				}
				conflicts[k] = true
				continue
			}
			merged[k] = v
		}
	}
	for k := range conflicts {
		// Winner: the AEU holding the max-xid link covering k; fall back
		// to the lowest AEU id holding the key.
		winner, bestXid := -1, uint64(0)
		for _, id := range aeuIDs {
			for _, lr := range states[id].links[obj] {
				if lr.Lo <= k && k <= lr.Hi && lr.Xid >= bestXid {
					winner, bestXid = id, lr.Xid
				}
			}
		}
		if winner >= 0 {
			if v, ok := states[winner].trees[obj][k]; ok {
				merged[k] = v
				continue
			}
		}
		for _, id := range aeuIDs {
			if v, ok := states[id].trees[obj][k]; ok {
				merged[k] = v
				break
			}
		}
	}
	kvs := make([]prefixtree.KV, 0, len(merged))
	for k, v := range merged {
		kvs = append(kvs, prefixtree.KV{Key: k, Value: v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].Key < kvs[j].Key })
	return kvs
}

// replayFile applies one log file's records above stamp to st. It returns
// the applied record count, byte count, the last valid record's sequence
// number, and whether the file ends in a torn (unparseable) tail.
// Structural damage inside a CRC-valid payload is also treated as torn:
// stop, never panic, never trust later frames.
func (m *Manager) replayFile(raw []byte, aeu int, stamp uint64, st *aeuState, stash map[uint64]*stashEntry) (records, bytes int64, lastSeq uint64, torn bool) {
	rest := raw
	for len(rest) > 0 {
		payload, r, ok := nextFrame(rest)
		if !ok {
			return records, bytes, lastSeq, true
		}
		if !applyRecord(payload, aeu, stamp, st, stash) {
			return records, bytes, lastSeq, true
		}
		lastSeq = binary.LittleEndian.Uint64(payload[0:8])
		records++
		bytes += int64(frameHeader + len(payload))
		rest = r
	}
	return records, bytes, lastSeq, false
}

// applyRecord decodes and applies one WAL payload; false means the payload
// is structurally invalid (treated as a torn tail by the caller).
func applyRecord(p []byte, aeu int, stamp uint64, st *aeuState, stash map[uint64]*stashEntry) bool {
	if len(p) < 13 {
		return false
	}
	seq := binary.LittleEndian.Uint64(p[0:8])
	kind := p[8]
	obj := binary.LittleEndian.Uint32(p[9:13])
	body := p[13:]
	apply := seq > stamp
	switch kind {
	case recUpsert:
		if len(body) < 4 {
			return false
		}
		n := int(binary.LittleEndian.Uint32(body[0:4]))
		if len(body) != 4+16*n {
			return false
		}
		if apply {
			tree := st.tree(obj)
			for i := 0; i < n; i++ {
				k := binary.LittleEndian.Uint64(body[4+16*i:])
				v := binary.LittleEndian.Uint64(body[12+16*i:])
				tree[k] = v
			}
		}
	case recDelete:
		if len(body) < 4 {
			return false
		}
		n := int(binary.LittleEndian.Uint32(body[0:4]))
		if len(body) != 4+8*n {
			return false
		}
		if apply {
			tree := st.tree(obj)
			for i := 0; i < n; i++ {
				delete(tree, binary.LittleEndian.Uint64(body[4+8*i:]))
			}
		}
	case recHandoff:
		if len(body) != 20 {
			return false
		}
		if apply {
			lo := binary.LittleEndian.Uint64(body[0:8])
			hi := binary.LittleEndian.Uint64(body[8:16])
			target := int(binary.LittleEndian.Uint32(body[16:20]))
			e := &stashEntry{obj: obj, target: target, lo: lo, hi: hi, kvs: make(map[uint64]uint64)}
			tree := st.tree(obj)
			for k, v := range tree {
				if lo <= k && k <= hi {
					e.kvs[k] = v
					delete(tree, k)
				}
			}
			stash[seq] = e
		}
	case recLink:
		if len(body) < 28 {
			return false
		}
		n := int(binary.LittleEndian.Uint32(body[24:28]))
		if len(body) != 28+16*n {
			return false
		}
		if apply {
			lo := binary.LittleEndian.Uint64(body[0:8])
			hi := binary.LittleEndian.Uint64(body[8:16])
			xid := binary.LittleEndian.Uint64(body[16:24])
			tree := st.tree(obj)
			for i := 0; i < n; i++ {
				k := binary.LittleEndian.Uint64(body[28+16*i:])
				v := binary.LittleEndian.Uint64(body[36+16*i:])
				tree[k] = v
			}
			st.links[obj] = append(st.links[obj], LinkRange{Xid: xid, Lo: lo, Hi: hi})
			delete(stash, xid)
		}
	default:
		return false
	}
	return true
}
