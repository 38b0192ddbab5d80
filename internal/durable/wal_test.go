package durable

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"eris/internal/faults"
	"eris/internal/prefixtree"
)

// lastSeq returns the last sequence number appended to l.
func lastSeq(l *Log) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// baseCheckpoint writes the minimal checkpoint a fresh directory needs
// before log-only recovery can run (the manifest is the recovery root).
func baseCheckpoint(t *testing.T, m *Manager, nAEUs int, objs ...ObjectMeta) {
	t.Helper()
	data := CheckpointData{Objects: objs, AEUs: make([]AEUImage, nAEUs)}
	if err := m.WriteCheckpoint(data); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
}

func openManager(t *testing.T, dir string, sync bool) *Manager {
	t.Helper()
	m, err := Open(Options{Dir: dir, SyncWrites: sync})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return m
}

func kvs(pairs ...uint64) []prefixtree.KV {
	out := make([]prefixtree.KV, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, prefixtree.KV{Key: pairs[i], Value: pairs[i+1]})
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, true)
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 1 << 20, Name: "t"})

	l := m.Log(0)
	l.AppendUpsert(1, kvs(10, 100, 20, 200, 30, 300))
	l.AppendDelete(1, []uint64{20})
	l.AppendUpsert(1, kvs(40, 400))
	if err := m.Flush(time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, want := l.DurableSeq(), lastSeq(l); got != want {
		t.Fatalf("DurableSeq=%d want LastSeq=%d", got, want)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := openManager(t, dir, true)
	rec, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec == nil || len(rec.Objects) != 1 {
		t.Fatalf("recovered %+v, want one object", rec)
	}
	got := rec.Objects[0]
	want := kvs(10, 100, 30, 300, 40, 400)
	if got.Name != "t" || got.Domain != 1<<20 || got.Kind != KindRange {
		t.Fatalf("object meta %+v", got)
	}
	if len(got.KVs) != len(want) {
		t.Fatalf("recovered %v want %v", got.KVs, want)
	}
	for i := range want {
		if got.KVs[i] != want[i] {
			t.Fatalf("recovered %v want %v", got.KVs, want)
		}
	}
	if rec.TornTails != 0 {
		t.Fatalf("TornTails=%d want 0", rec.TornTails)
	}
	m2.Close()
}

// Sequence numbers survive sessions: a reopened manager must never reuse
// sequence numbers (they double as transfer ids and idempotency keys).
func TestSeqMonotonicAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, false)
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"})
	l := m.Log(0)
	var last uint64
	for i := 0; i < 10; i++ {
		last = l.AppendUpsert(1, kvs(uint64(i), 1))
	}
	// The manifest write preceded the appends, so bound the floor via a
	// fresh checkpoint (which republishes next_seq).
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"})
	m.Close()

	m2 := openManager(t, dir, false)
	defer m2.Close()
	if _, err := m2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := m2.Log(0).AppendUpsert(1, kvs(99, 1)); got <= last {
		t.Fatalf("second-session seq %d not above first-session %d", got, last)
	}
}

func TestRotateSealsGeneration(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, true)
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"})
	l := m.Log(0)
	seq1 := l.AppendUpsert(1, kvs(1, 10))
	stamp, gen := l.Rotate()
	if stamp != seq1 {
		t.Fatalf("Rotate stamp=%d want %d", stamp, seq1)
	}
	l.AppendUpsert(1, kvs(2, 20))
	if err := m.Flush(time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	// Both the sealed generation and its successor exist on disk.
	for _, g := range []int{gen, gen + 1} {
		if _, err := os.Stat(m.walPath(0, g)); err != nil {
			t.Fatalf("wal gen %d: %v", g, err)
		}
	}
	m.Close()
}

// A checkpoint carrying an AEU's image prunes the generations the image
// covers; replay afterwards only needs the tail.
func TestCheckpointPrunesLogs(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, true)
	obj := ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"}
	baseCheckpoint(t, m, 1, obj)
	l := m.Log(0)
	l.AppendUpsert(1, kvs(1, 10, 2, 20))
	stamp, gen := l.Rotate()
	l.AppendUpsert(1, kvs(3, 30))
	if err := m.Flush(time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	data := CheckpointData{
		Objects: []ObjectMeta{obj},
		AEUs: []AEUImage{{
			Stamp: stamp, Gen: gen,
			Trees: []TreeImage{{Obj: 1, KVs: kvs(1, 10, 2, 20)}},
		}},
	}
	if err := m.WriteCheckpoint(data); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if _, err := os.Stat(m.walPath(0, gen)); !os.IsNotExist(err) {
		t.Fatalf("sealed gen %d not pruned (err=%v)", gen, err)
	}
	m.Close()

	m2 := openManager(t, dir, true)
	defer m2.Close()
	rec, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	want := kvs(1, 10, 2, 20, 3, 30)
	if len(rec.Objects) != 1 || len(rec.Objects[0].KVs) != len(want) {
		t.Fatalf("recovered %+v want kvs %v", rec.Objects, want)
	}
	for i, kv := range rec.Objects[0].KVs {
		if kv != want[i] {
			t.Fatalf("recovered %v want %v", rec.Objects[0].KVs, want)
		}
	}
}

// fail_fsync faults make the group-commit writer retry; appends still
// become durable and the failure counter records the attempts.
func TestFailFsyncRetries(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(7)
	inj.Arm(faults.FailFsync, faults.Rule{Every: 1, Limit: 3})
	m, err := Open(Options{Dir: dir, SyncWrites: true, Faults: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"})
	l := m.Log(0)
	l.AppendUpsert(1, kvs(1, 10))
	if err := m.Flush(5 * time.Second); err != nil {
		t.Fatalf("Flush despite fsync retries: %v", err)
	}
	if st := m.Stats(); st.FsyncFailures == 0 {
		t.Fatalf("Stats.FsyncFailures=0, want >0 with fail_fsync armed")
	}
	m.Close()
}

// fail_write faults make the group-commit writer retry the segment in
// place. Dropping it instead would let the next batch's fsync advance the
// durable watermark past records that never reached the OS — acks would
// release for data that is not on disk.
func TestFailWriteRetries(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(11)
	inj.Arm(faults.FailWrite, faults.Rule{Every: 1, Limit: 4})
	m, err := Open(Options{Dir: dir, SyncWrites: true, Faults: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"})
	l := m.Log(0)
	l.AppendUpsert(1, kvs(1, 10))
	l.AppendUpsert(1, kvs(2, 20))
	if err := m.Flush(5 * time.Second); err != nil {
		t.Fatalf("Flush despite write retries: %v", err)
	}
	if got, want := l.DurableSeq(), lastSeq(l); got != want {
		t.Fatalf("DurableSeq=%d want LastSeq=%d", got, want)
	}
	if m.logErrors.Load() == 0 {
		t.Fatal("logErrors=0, want >0 with fail_write armed")
	}
	m.Close()

	m2 := openManager(t, dir, true)
	defer m2.Close()
	rec, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got := map[uint64]uint64{}
	for _, kv := range rec.Objects[0].KVs {
		got[kv.Key] = kv.Value
	}
	if got[1] != 10 || got[2] != 20 {
		t.Fatalf("records lost across write retries: recovered %v", got)
	}
	if rec.TornTails != 0 {
		t.Fatalf("TornTails=%d want 0", rec.TornTails)
	}
}

// A checkpoint covering fewer AEUs than a previous session ran with must
// delete the extra AEUs' logs: recovery already merged them, and a later
// recovery finding them (logs but no image) would replay them from stamp
// 0 — resurrecting deleted keys.
func TestPruneDeletesStaleAEULogs(t *testing.T) {
	dir := t.TempDir()
	obj := ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"}

	// Session 1: two workers.
	m1 := openManager(t, dir, true)
	baseCheckpoint(t, m1, 2, obj)
	m1.Log(0).AppendUpsert(1, kvs(1, 10))
	m1.Log(1).AppendUpsert(1, kvs(5, 50))
	if err := m1.Flush(time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	m1.Close()

	// Session 2: one worker. Recovery merges both logs; the post-recovery
	// checkpoint covers one AEU and must dispose of AEU 1's old log.
	m2 := openManager(t, dir, true)
	rec, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Objects) != 1 || len(rec.Objects[0].KVs) != 2 {
		t.Fatalf("recovered %+v, want keys {1,5}", rec.Objects)
	}
	l0 := m2.Log(0)
	stamp, gen := l0.Rotate()
	data := CheckpointData{
		Objects: []ObjectMeta{obj},
		AEUs: []AEUImage{{
			Stamp: stamp, Gen: gen,
			Trees: []TreeImage{{Obj: 1, KVs: rec.Objects[0].KVs}},
		}},
	}
	if err := m2.WriteCheckpoint(data); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if stale, _ := filepath.Glob(filepath.Join(dir, "wal-1-*.log")); len(stale) != 0 {
		t.Fatalf("stale AEU 1 logs survive the checkpoint: %v", stale)
	}

	// Deleting a key the stale log held must stick across another cycle.
	l0.AppendDelete(1, []uint64{5})
	if err := m2.Flush(time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	m2.Close()

	m3 := openManager(t, dir, true)
	defer m3.Close()
	rec3, err := m3.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	got := map[uint64]uint64{}
	for _, kv := range rec3.Objects[0].KVs {
		got[kv.Key] = kv.Value
	}
	if _, resurrected := got[5]; resurrected {
		t.Fatalf("deleted key resurrected from a stale AEU's log: %v", got)
	}
	if got[1] != 10 {
		t.Fatalf("surviving key lost: %v", got)
	}
}

// Crash drops buffered-but-unwritten records; what Flush acknowledged
// before the crash survives recovery.
func TestCrashDropsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, true)
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"})
	l := m.Log(0)
	l.AppendUpsert(1, kvs(1, 10))
	if err := m.Flush(time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	l.AppendUpsert(1, kvs(2, 20)) // may or may not hit disk
	m.Crash()
	if !m.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	// Appends after the crash are dropped (the returned seq can never
	// become durable, so its ack stays parked — the designed ambiguity).
	if seq := l.AppendUpsert(1, kvs(3, 30)); seq <= l.DurableSeq() {
		t.Fatalf("post-crash append seq %d not above durable %d", seq, l.DurableSeq())
	}

	m2 := openManager(t, dir, true)
	defer m2.Close()
	rec, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover after crash: %v", err)
	}
	got := map[uint64]uint64{}
	for _, kv := range rec.Objects[0].KVs {
		got[kv.Key] = kv.Value
	}
	if got[1] != 10 {
		t.Fatalf("flushed write lost: recovered %v", got)
	}
	if _, resurrected := got[3]; resurrected {
		t.Fatalf("post-crash append resurrected: recovered %v", got)
	}
}

func TestManifestPublishedAtomically(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, true)
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 100, Name: "t"})
	m.Close()
	// A stale tmp file from a crashed checkpoint must not confuse Open.
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-99.ckpt.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := openManager(t, dir, true)
	defer m2.Close()
	rec, err := m2.Recover()
	if err != nil || rec == nil {
		t.Fatalf("Recover with stale tmp files: rec=%v err=%v", rec, err)
	}
}
