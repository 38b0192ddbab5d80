package histcheck

// Self-tests with hand-built histories: known-linearizable ones must pass,
// known-violating ones must be flagged — the checker itself is falsifiable.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"eris/internal/colstore"
	"eris/internal/history"
	"eris/internal/prefixtree"
)

// h is a tiny DSL for hand-building histories against a generously sized
// recorder.
type h struct {
	rec *history.Recorder
}

func newH(clients int) *h { return &h{rec: history.New(clients, 1024)} }

func (b *h) log(c int) *history.ClientLog { return b.rec.Client(c) }

func (b *h) check(opts Options) Result { return Check(b.rec, opts) }

func TestSequentialHistoryLinearizable(t *testing.T) {
	b := newH(1)
	l := b.log(0)
	s := l.InvokeKey(history.OpUpsert, 1, 10)
	l.ReturnWrite(s, history.OpUpsert)
	s = l.InvokeKey(history.OpLookup, 1, 0)
	l.ReturnRead(s, true, 10)
	s = l.InvokeKey(history.OpDelete, 1, 0)
	l.ReturnWrite(s, history.OpDelete)
	s = l.InvokeKey(history.OpLookup, 1, 0)
	l.ReturnRead(s, false, 0)
	res := b.check(Options{})
	if len(res.Violations) != 0 {
		t.Fatalf("sequential history flagged: %+v", res.Violations)
	}
	if res.Ops != 4 {
		t.Fatalf("ops checked = %d, want 4", res.Ops)
	}
}

// TestConcurrentReadSeesEitherValue overlaps a read with a write: both the
// old and the new value are legal observations, in separate runs.
func TestConcurrentReadSeesEitherValue(t *testing.T) {
	for _, seen := range []uint64{10, 20} {
		b := newH(2)
		w, r := b.log(0), b.log(1)
		s0 := w.InvokeKey(history.OpUpsert, 5, 10)
		w.ReturnWrite(s0, history.OpUpsert)
		// Concurrent: the second write and the read overlap.
		s1 := w.InvokeKey(history.OpUpsert, 5, 20)
		s2 := r.InvokeKey(history.OpLookup, 5, 0)
		w.ReturnWrite(s1, history.OpUpsert)
		r.ReturnRead(s2, true, seen)
		res := b.check(Options{})
		if len(res.Violations) != 0 {
			t.Fatalf("concurrent read of %d flagged: %+v", seen, res.Violations)
		}
	}
}

// TestLostWriteMayOrMayNotApply: a timed-out write is open-ended — a later
// read may see it applied or not, but never a third value.
func TestLostWriteMayOrMayNotApply(t *testing.T) {
	for _, tc := range []struct {
		seen  uint64
		found bool
		ok    bool
	}{
		{10, true, true},  // lost write never applied
		{20, true, true},  // lost write applied late
		{30, true, false}, // a value nobody wrote
		{0, false, false}, // a deletion nobody performed
	} {
		b := newH(2)
		w, r := b.log(0), b.log(1)
		s0 := w.InvokeKey(history.OpUpsert, 5, 10)
		w.ReturnWrite(s0, history.OpUpsert)
		s1 := w.InvokeKey(history.OpUpsert, 5, 20)
		w.ReturnLost(s1, history.OpUpsert)
		s2 := r.InvokeKey(history.OpLookup, 5, 0)
		r.ReturnRead(s2, tc.found, tc.seen)
		res := b.check(Options{})
		if ok := len(res.Violations) == 0; ok != tc.ok {
			t.Fatalf("lost-write read (%v,%d): linearizable=%v, want %v (%+v)",
				tc.found, tc.seen, ok, tc.ok, res.Violations)
		}
	}
}

// TestStaleReadCaught: two acked writes in sequence, then a read of the
// first value strictly after both — the classic stale read.
func TestStaleReadCaught(t *testing.T) {
	b := newH(1)
	l := b.log(0)
	s := l.InvokeKey(history.OpUpsert, 7, 1)
	l.ReturnWrite(s, history.OpUpsert)
	s = l.InvokeKey(history.OpUpsert, 7, 2)
	l.ReturnWrite(s, history.OpUpsert)
	s = l.InvokeKey(history.OpLookup, 7, 0)
	l.ReturnRead(s, true, 1) // stale: must observe 2
	res := b.check(Options{})
	if len(res.Violations) != 1 || res.Violations[0].Kind != "key" || res.Violations[0].Key != 7 {
		t.Fatalf("stale read not flagged: %+v", res.Violations)
	}
	// The minimized fragment must itself still fail on replay.
	if len(res.Violations[0].Events) == 0 {
		t.Fatal("violation carries no events")
	}
	rep := CheckEvents(res.Violations[0].Events, Options{})
	if len(rep.Violations) != 1 {
		t.Fatalf("minimized fragment no longer fails: %+v", rep)
	}
}

// TestReadAfterAckedDeleteCaught: an acked delete followed by a read that
// still observes the value.
func TestReadAfterAckedDeleteCaught(t *testing.T) {
	b := newH(1)
	l := b.log(0)
	s := l.InvokeKey(history.OpUpsert, 9, 42)
	l.ReturnWrite(s, history.OpUpsert)
	s = l.InvokeKey(history.OpDelete, 9, 0)
	l.ReturnWrite(s, history.OpDelete)
	s = l.InvokeKey(history.OpLookup, 9, 0)
	l.ReturnRead(s, true, 42)
	res := b.check(Options{})
	if len(res.Violations) != 1 {
		t.Fatalf("read-after-delete not flagged: %+v", res.Violations)
	}
}

// TestInitialStateRespected: reads before any write must observe the
// configured initial state, and flag anything else.
func TestInitialStateRespected(t *testing.T) {
	init := []prefixtree.KV{{Key: 3, Value: 30}}
	for _, tc := range []struct {
		key, seen uint64
		found, ok bool
	}{
		{3, 30, true, true},
		{3, 31, true, false},
		{4, 0, false, true},
		{4, 40, true, false},
	} {
		b := newH(1)
		l := b.log(0)
		s := l.InvokeKey(history.OpLookup, tc.key, 0)
		l.ReturnRead(s, tc.found, tc.seen)
		res := b.check(Options{Initial: init})
		if ok := len(res.Violations) == 0; ok != tc.ok {
			t.Fatalf("initial read key %d (%v,%d): ok=%v, want %v", tc.key, tc.found, tc.seen, ok, tc.ok)
		}
	}
}

// TestDefaultUnknownPinsFirstRead: without an enumerated initial state the
// first read pins a key's start value; a later contradicting read without
// an intervening write is still a violation.
func TestDefaultUnknownPinsFirstRead(t *testing.T) {
	b := newH(1)
	l := b.log(0)
	s := l.InvokeKey(history.OpLookup, 11, 0)
	l.ReturnRead(s, true, 5)
	s = l.InvokeKey(history.OpLookup, 11, 0)
	l.ReturnRead(s, true, 6) // contradicts the pinned state
	res := b.check(Options{DefaultUnknown: true})
	if len(res.Violations) != 1 {
		t.Fatalf("contradicting unknown-state reads not flagged: %+v", res.Violations)
	}

	b = newH(1)
	l = b.log(0)
	s = l.InvokeKey(history.OpLookup, 11, 0)
	l.ReturnRead(s, true, 5)
	s = l.InvokeKey(history.OpLookup, 11, 0)
	l.ReturnRead(s, true, 5)
	if res := b.check(Options{DefaultUnknown: true}); len(res.Violations) != 0 {
		t.Fatalf("consistent unknown-state reads flagged: %+v", res.Violations)
	}
}

// TestScanMissesAckedUpsert: an upsert acked strictly before a scan window
// opens must be visible to the scan — observing matched=0 is the
// violation this check exists for.
func TestScanMissesAckedUpsert(t *testing.T) {
	b := newH(2)
	w, r := b.log(0), b.log(1)
	s0 := w.InvokeKey(history.OpUpsert, 50, 500)
	w.ReturnWrite(s0, history.OpUpsert)
	s1 := r.InvokeScan(history.OpScanRange, 0, 100, colstore.Predicate{Op: colstore.All})
	r.ReturnAgg(s1, history.OpScanRange, 0, 0) // misses the acked write
	res := b.check(Options{})
	if len(res.Violations) != 1 || res.Violations[0].Kind != "scan" {
		t.Fatalf("scan missing acked upsert not flagged: %+v", res.Violations)
	}
}

// TestScanOverlappingUpsertMaySeeEither: a scan concurrent with the upsert
// may count it or not; both observations must pass.
func TestScanOverlappingUpsertMaySeeEither(t *testing.T) {
	for _, matched := range []uint64{0, 1} {
		sum := matched * 500
		b := newH(2)
		w, r := b.log(0), b.log(1)
		s1 := r.InvokeScan(history.OpScanRange, 0, 100, colstore.Predicate{Op: colstore.All})
		s0 := w.InvokeKey(history.OpUpsert, 50, 500)
		w.ReturnWrite(s0, history.OpUpsert)
		r.ReturnAgg(s1, history.OpScanRange, matched, sum)
		res := b.check(Options{})
		if len(res.Violations) != 0 {
			t.Fatalf("concurrent scan observing matched=%d flagged: %+v", matched, res.Violations)
		}
	}
}

// TestScanCountsInitialState: untouched initial keys in range contribute
// exactly; a scan inventing extra matches is flagged.
func TestScanCountsInitialState(t *testing.T) {
	init := []prefixtree.KV{{Key: 10, Value: 1}, {Key: 20, Value: 2}, {Key: 200, Value: 9}}
	b := newH(1)
	l := b.log(0)
	s := l.InvokeScan(history.OpScanRange, 0, 100, colstore.Predicate{Op: colstore.All})
	l.ReturnAgg(s, history.OpScanRange, 2, 3)
	if res := b.check(Options{Initial: init}); len(res.Violations) != 0 {
		t.Fatalf("exact initial-state scan flagged: %+v", res.Violations)
	}

	b = newH(1)
	l = b.log(0)
	s = l.InvokeScan(history.OpScanRange, 0, 100, colstore.Predicate{Op: colstore.All})
	l.ReturnAgg(s, history.OpScanRange, 3, 12) // invented a row
	if res := b.check(Options{Initial: init}); len(res.Violations) != 1 {
		t.Fatalf("invented scan row not flagged")
	}
}

// TestColumnStaticScans: identical predicates must agree on a static
// column; a baseline pins the absolute answer.
func TestColumnStaticScans(t *testing.T) {
	pred := colstore.Predicate{Op: colstore.Less, Operand: 100}
	b := newH(1)
	l := b.log(0)
	s := l.InvokeScan(history.OpColScan, 0, 0, pred)
	l.ReturnAgg(s, history.OpColScan, 10, 45)
	s = l.InvokeScan(history.OpColScan, 0, 0, pred)
	l.ReturnAgg(s, history.OpColScan, 10, 45)
	if res := b.check(Options{ColumnStatic: true}); len(res.Violations) != 0 {
		t.Fatalf("agreeing static column scans flagged: %+v", res.Violations)
	}

	b = newH(1)
	l = b.log(0)
	s = l.InvokeScan(history.OpColScan, 0, 0, pred)
	l.ReturnAgg(s, history.OpColScan, 10, 45)
	s = l.InvokeScan(history.OpColScan, 0, 0, pred)
	l.ReturnAgg(s, history.OpColScan, 9, 36) // a block went missing mid-migration
	if res := b.check(Options{ColumnStatic: true}); len(res.Violations) != 1 {
		t.Fatalf("disagreeing static column scans not flagged")
	}

	b = newH(1)
	l = b.log(0)
	s = l.InvokeScan(history.OpColScan, 0, 0, pred)
	l.ReturnAgg(s, history.OpColScan, 10, 45)
	base := map[colstore.Predicate]Agg{pred: {Matched: 11, Sum: 55}}
	if res := b.check(Options{ColumnStatic: true, ColumnBaseline: base}); len(res.Violations) != 1 {
		t.Fatalf("baseline mismatch not flagged")
	}
}

// TestDumpAndReplay round-trips a violation through the results file and
// the replay entry point.
// replayFile re-checks every violation fragment in a dump: the returned
// result lists the fragments that still fail. A fragment that no longer
// fails means the dump and the checker disagree — worth investigating
// either way.
func replayFile(path string) (Result, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Result{}, err
	}
	var d Dump
	if err := json.Unmarshal(blob, &d); err != nil {
		return Result{}, fmt.Errorf("histcheck: parse %s: %w", path, err)
	}
	opts := Options{Initial: d.Initial, DefaultUnknown: d.DefaultUnknown}
	var merged Result
	for _, v := range d.Violations {
		res := CheckEvents(v.Events, opts)
		merged.Ops += res.Ops
		merged.Scans += res.Scans
		merged.ColScans += res.ColScans
		merged.Violations = append(merged.Violations, res.Violations...)
	}
	return merged, nil
}

func TestDumpAndReplay(t *testing.T) {
	b := newH(1)
	l := b.log(0)
	s := l.InvokeKey(history.OpUpsert, 7, 1)
	l.ReturnWrite(s, history.OpUpsert)
	s = l.InvokeKey(history.OpLookup, 7, 0)
	l.ReturnRead(s, true, 2)
	opts := Options{}
	res := b.check(opts)
	if len(res.Violations) != 1 {
		t.Fatalf("setup: %+v", res)
	}
	dir := t.TempDir()
	path, err := WriteViolations(dir, "selftest", res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump path %s not under %s", path, dir)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	rep, err := replayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("replayed dump no longer fails: %+v", rep)
	}
}

// TestRecorderSteadyStateAllocs guards the recording hot path: appends
// into a preallocated log must not allocate.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	rec := history.New(1, 1<<16)
	l := rec.Client(0)
	allocs := testing.AllocsPerRun(1000, func() {
		s := l.InvokeKey(history.OpUpsert, 1, 2)
		l.ReturnWrite(s, history.OpUpsert)
		s = l.InvokeKey(history.OpLookup, 1, 0)
		l.ReturnRead(s, true, 2)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestRecorderOverflowDropsNew: a full log drops new events and counts
// them instead of wrapping over the pairing.
func TestRecorderOverflowDropsNew(t *testing.T) {
	rec := history.New(1, 4)
	l := rec.Client(0)
	for i := 0; i < 4; i++ {
		l.InvokeKey(history.OpUpsert, uint64(i), 1)
	}
	l.InvokeKey(history.OpUpsert, 99, 1)
	if got := rec.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if got := rec.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	if rec.Events()[0].Key != 0 {
		t.Fatal("overflow overwrote the oldest event")
	}
}

// TestOverflowCutsHistory: a full log drops a write, another client then
// reads the dropped write's value. Checked whole, that read has no witness
// — a violation that never happened. Check must cut at the overflow
// instant instead, keep its teeth before it, and treat a write still open
// at the cut as open-ended.
func TestOverflowCutsHistory(t *testing.T) {
	build := func(staleBeforeCut bool) *history.Recorder {
		rec := history.New(2, 6)
		a, b := rec.Client(0), rec.Client(1)
		s := a.InvokeKey(history.OpUpsert, 1, 10)
		a.ReturnWrite(s, history.OpUpsert)
		// Open at the cut: invoked before a overflows, answered after.
		open := b.InvokeKey(history.OpUpsert, 2, 50)
		s = a.InvokeKey(history.OpLookup, 2, 0)
		a.ReturnRead(s, true, 50) // explained only by the open write
		seen := uint64(10)
		if staleBeforeCut {
			seen = 11 // a value nobody wrote, observed before the overflow
		}
		s = a.InvokeKey(history.OpLookup, 1, 0)
		a.ReturnRead(s, true, seen) // a's log is full now
		s = a.InvokeKey(history.OpUpsert, 1, 20)
		a.ReturnWrite(s, history.OpUpsert) // both events dropped
		b.ReturnWrite(open, history.OpUpsert)
		s = b.InvokeKey(history.OpLookup, 1, 0)
		b.ReturnRead(s, true, 20) // reads the write a's log never saw
		return rec
	}

	rec := build(false)
	if got := rec.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if whole := CheckEvents(rec.Events(), Options{}); len(whole.Violations) == 0 {
		t.Fatal("the uncut history should look violated: the test no longer shows why the cut is needed")
	}
	res := Check(rec, Options{})
	if len(res.Violations) != 0 {
		t.Fatalf("overflowed history flagged past the cut: %+v", res.Violations)
	}
	if cut, ok := rec.OverflowAt(); !ok || res.CutAt != cut || res.Dropped != 2 {
		t.Fatalf("result cut=%d dropped=%d, recorder cut=%d ok=%v", res.CutAt, res.Dropped, cut, ok)
	}
	if res.Ops != 4 {
		t.Fatalf("ops checked = %d, want the 4 invoked before the cut", res.Ops)
	}

	res = Check(build(true), Options{})
	if len(res.Violations) != 1 || res.Violations[0].Key != 1 {
		t.Fatalf("stale read before the cut not flagged: %+v", res.Violations)
	}
}
