package durable

import (
	"encoding/binary"
	"math/rand"
	"os"
	"testing"
	"time"

	"eris/internal/faults"
)

// replayCheck parses raw as a WAL file without applying it — the fuzz
// target: it must never panic and must stop at the first invalid frame.
// It returns the number of valid leading records.
func replayCheck(raw []byte) int {
	st := newAEUState()
	stash := make(map[uint64]*stashEntry)
	n, _, _, _ := (&Manager{}).replayFile(raw, 0, 0, st, stash)
	return int(n)
}

// buildLogBytes writes a small log through the real append/flush path and
// returns the on-disk bytes plus the record count.
func buildLogBytes(t testing.TB, records int) []byte {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(Options{Dir: dir, SyncWrites: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	l := m.Log(0)
	for i := 0; i < records; i++ {
		switch i % 4 {
		case 0, 1:
			l.AppendUpsert(1, kvs(uint64(i), uint64(i)*10, uint64(i)+1000, 7))
		case 2:
			l.AppendDelete(1, []uint64{uint64(i) + 1000})
		case 3:
			l.AppendHandoff(1, uint64(i), uint64(i)+10, 1)
		}
	}
	if err := m.Flush(time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	path := m.walPath(0, 1)
	m.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return raw
}

// Truncating the log at every possible byte boundary must never panic,
// must keep every fully-framed record before the cut, and must drop the
// torn one.
func TestTornTailEveryByte(t *testing.T) {
	const records = 8
	raw := buildLogBytes(t, records)
	// Frame boundaries, so we know the expected count for each cut.
	bounds := []int{0}
	rest := raw
	for len(rest) > 0 {
		payload, r, ok := nextFrame(rest)
		if !ok {
			t.Fatal("reference log does not parse")
		}
		bounds = append(bounds, bounds[len(bounds)-1]+frameHeader+len(payload))
		rest = r
	}
	if len(bounds) != records+1 {
		t.Fatalf("parsed %d records, want %d", len(bounds)-1, records)
	}
	for cut := 0; cut <= len(raw); cut++ {
		want := 0
		for _, b := range bounds[1:] {
			if cut >= b {
				want++
			}
		}
		if got := replayCheck(raw[:cut]); got != want {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, got, want)
		}
	}
}

// Flipping any single bit of the log must never panic, and must never
// *gain* records; replay stops at the first frame the flip corrupts.
func TestTornTailBitFlips(t *testing.T) {
	raw := buildLogBytes(t, 8)
	full := replayCheck(raw)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		i := rng.Intn(len(raw))
		bit := byte(1) << uint(rng.Intn(8))
		mut := append([]byte(nil), raw...)
		mut[i] ^= bit
		if got := replayCheck(mut); got > full {
			t.Fatalf("flip at byte %d bit %v: replayed %d > original %d", i, bit, got, full)
		}
	}
}

// End-to-end torn tail: truncate the last record mid-frame on disk, then
// recover. The manager must stop at the last valid record, count the torn
// tail, and keep everything before it.
func TestRecoverTornTailOnDisk(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, true)
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 1 << 20, Name: "t"})
	l := m.Log(0)
	l.AppendUpsert(1, kvs(1, 10))
	l.AppendUpsert(1, kvs(2, 20))
	l.AppendUpsert(1, kvs(3, 30))
	if err := m.Flush(time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	path := m.walPath(0, 1)
	m.Close()

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	m2 := openManager(t, dir, true)
	defer m2.Close()
	rec, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.TornTails != 1 {
		t.Fatalf("TornTails=%d want 1", rec.TornTails)
	}
	if st := m2.Stats(); st.TornTails != 1 {
		t.Fatalf("Stats.TornTails=%d want 1", st.TornTails)
	}
	got := map[uint64]uint64{}
	for _, kv := range rec.Objects[0].KVs {
		got[kv.Key] = kv.Value
	}
	if got[1] != 10 || got[2] != 20 {
		t.Fatalf("pre-tear records lost: %v", got)
	}
	if _, ok := got[3]; ok {
		t.Fatalf("torn record replayed: %v", got)
	}
}

// A CRC-valid frame whose payload is structurally damaged (bad inner
// count) must also stop replay rather than panic: recompute the CRC after
// corrupting the body so only applyRecord can catch it.
func TestStructurallyInvalidPayload(t *testing.T) {
	raw := buildLogBytes(t, 2)
	payload, _, ok := nextFrame(raw)
	if !ok {
		t.Fatal("reference log does not parse")
	}
	mut := append([]byte(nil), raw...)
	// Overwrite the upsert's kv count with a huge value, then re-seal.
	binary.LittleEndian.PutUint32(mut[frameHeader+13:], 1<<30)
	sealFrame(mut[:frameHeader+len(payload)])
	if got := replayCheck(mut); got != 0 {
		t.Fatalf("replayed %d records past a structurally invalid payload", got)
	}
}

// With fsync jammed (fail_fsync on every attempt) the written-but-unsynced
// window stays open, so a crash with torn_write armed truncates the tail at
// a random offset — usually mid-record. Recovery must come up cleanly on
// whatever prefix survived.
func TestCrashTearsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(3)
	inj.Arm(faults.FailFsync, faults.Rule{Every: 1})
	inj.Arm(faults.TornWrite, faults.Rule{Every: 1})
	m, err := Open(Options{Dir: dir, SyncWrites: true, Faults: inj, TearSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	baseCheckpoint(t, m, 1, ObjectMeta{ID: 1, Kind: KindRange, Domain: 1 << 20, Name: "t"})
	l := m.Log(0)
	for i := 0; i < 20; i++ {
		l.AppendUpsert(1, kvs(uint64(i), uint64(i)*10))
	}
	// Wait for the writer to put bytes on disk (it cannot sync them: every
	// fsync fails), so the crash has a window to tear.
	path := m.walPath(0, 1)
	for i := 0; ; i++ {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			break
		}
		if i > 5000 {
			t.Fatal("writer never wrote")
		}
		time.Sleep(time.Millisecond)
	}
	m.Crash()

	m2 := openManager(t, dir, true)
	defer m2.Close()
	rec, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover over torn tail: %v", err)
	}
	// Nothing was fsynced, so anything from zero to all 20 records may
	// survive — but every surviving kv must be one we wrote, in prefix
	// order, and a mid-record cut must be counted.
	got := rec.Objects[0].KVs
	for i, kv := range got {
		if kv.Key != uint64(i) || kv.Value != uint64(i)*10 {
			t.Fatalf("kv %d corrupted after tear: %+v", i, kv)
		}
	}
	t.Logf("survived %d/20 records, torn tails %d", len(got), rec.TornTails)
}

func FuzzWALReplay(f *testing.F) {
	raw := buildLogBytes(f, 6)
	f.Add(raw)
	f.Add(raw[:len(raw)-3])
	f.Add(raw[:frameHeader])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	short := append([]byte(nil), raw...)
	short[0] ^= 0x40
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := replayCheck(data) // must never panic
		if n < 0 {
			t.Fatalf("negative record count %d", n)
		}
	})
}

func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	m, err := Open(Options{Dir: dir, SyncWrites: false})
	if err != nil {
		b.Fatal(err)
	}
	l := m.Log(0)
	batch := make([]uint64, 0, 128)
	for i := 0; i < 64; i++ {
		batch = append(batch, uint64(i), uint64(i)*3)
	}
	for i := 0; i < 4096; i++ {
		l.AppendUpsert(1, kvs(batch...))
	}
	if err := m.Flush(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	path := m.walPath(0, 1)
	m.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := replayCheck(raw); got != 4096 {
			b.Fatalf("replayed %d records, want 4096", got)
		}
	}
}
