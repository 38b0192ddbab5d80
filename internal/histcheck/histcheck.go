// Package histcheck checks recorded operation histories (internal/history)
// for linearizability against the sequential map model, per-key
// compositionally (Wing–Gong style DFS with memoization), plus a windowed
// consistency check for range-scan aggregates and an equality check for
// column-scan aggregates over a static column.
//
// Soundness over completeness: every reported violation is real (no
// sequential witness exists / no possible state set explains the
// aggregate), but concurrency windows are over-approximated, so some
// subtle anomalies may pass. That is the right polarity for a test
// oracle: zero false alarms, teeth proven by the self-tests and the
// deliberate stale-read fault.
package histcheck

import (
	"fmt"
	"math"
	"sort"

	"eris/internal/colstore"
	"eris/internal/history"
	"eris/internal/prefixtree"
)

// Agg is an aggregate expectation for a column predicate.
type Agg struct {
	Matched uint64
	Sum     uint64
}

// Options configures a check.
type Options struct {
	// Initial is the state of the checked index before the recorded
	// history started, sorted by key. Keys absent from it start absent —
	// unless DefaultUnknown is set.
	Initial []prefixtree.KV
	// DefaultUnknown makes keys without an Initial entry start in an
	// unknown state: the first linearized read pins it. Use when the
	// pre-existing contents cannot be enumerated (remote erisload runs).
	// Range-scan aggregate checking is skipped in this mode — the bounds
	// would be vacuous without a known base state.
	DefaultUnknown bool
	// ColumnStatic asserts the recorded history contains no column
	// mutations: every column scan with the same predicate must observe
	// the identical aggregate, no matter how blocks migrate meanwhile.
	ColumnStatic bool
	// ColumnBaseline, with ColumnStatic, additionally pins the expected
	// aggregate per predicate.
	ColumnBaseline map[colstore.Predicate]Agg
}

// Violation is one confirmed linearizability failure with a minimized
// still-failing event fragment for replay.
type Violation struct {
	Kind   string // "key", "scan" or "colscan"
	Key    uint64 // offending key for Kind "key"
	Reason string
	Events []history.Event
}

// Result is the outcome of a check.
type Result struct {
	Violations []Violation
	// Ops counts checked point operations; Scans / ColScans checked
	// aggregates. Dropped repeats the recorder's overflow count; when it is
	// non-zero only the events before CutAt (recorder time) were checked.
	Ops      int
	Scans    int
	ColScans int
	Dropped  int64
	CutAt    int64
}

// op is one paired operation.
type op struct {
	client uint16
	seq    uint32
	kind   history.Op
	inv    int64
	ret    int64 // math.MaxInt64 when the outcome is unknown (lost)
	lost   bool  // write that may or may not have applied

	key   uint64
	val   uint64 // written value / observed read value
	found bool   // lookup observation

	lo, hi       uint64 // scans
	pred         colstore.Predicate
	matched, sum uint64

	evI, evR history.Event
	hasR     bool
}

// Check pairs and checks the events in rec. When a log overflowed, the
// history is cut at the earliest overflow instant across all logs: up to
// there every client's record is complete, while past it a dropped write
// would make recorded reads of its value look like violations. Operations
// still open at the cut lose their response, which pair already treats
// soundly — writes become open-ended, reads constrain nothing.
func Check(rec *history.Recorder, opts Options) Result {
	events := rec.Events()
	cut, overflowed := rec.OverflowAt()
	if overflowed {
		kept := events[:0]
		for _, e := range events {
			if e.T < cut {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	res := CheckEvents(events, opts)
	res.Dropped, res.CutAt = rec.Dropped(), cut
	return res
}

// CheckEvents pairs and checks a flat event slice (replay entry point; the
// slice may mix clients in any order).
func CheckEvents(events []history.Event, opts Options) Result {
	var res Result
	ops := pair(events)

	byKey := map[uint64][]*op{}
	written := map[uint64]bool{}
	var scans, colScans []*op
	for _, o := range ops {
		switch o.kind {
		case history.OpLookup, history.OpUpsert, history.OpDelete:
			byKey[o.key] = append(byKey[o.key], o)
			if o.kind != history.OpLookup {
				written[o.key] = true
			}
			res.Ops++
		case history.OpScanRange:
			scans = append(scans, o)
			res.Scans++
		case history.OpColScan:
			colScans = append(colScans, o)
			res.ColScans++
		}
	}

	initVal := func(key uint64) (uint64, bool) {
		i := sort.Search(len(opts.Initial), func(i int) bool { return opts.Initial[i].Key >= key })
		if i < len(opts.Initial) && opts.Initial[i].Key == key {
			return opts.Initial[i].Value, true
		}
		return 0, false
	}

	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		kops := byKey[key]
		val, present := initVal(key)
		unknown := opts.DefaultUnknown && !present
		if checkKey(kops, present, val, unknown) {
			continue
		}
		min := minimizeKey(kops, present, val, unknown)
		res.Violations = append(res.Violations, Violation{
			Kind:   "key",
			Key:    key,
			Reason: fmt.Sprintf("key %d: no sequential witness for %d operations", key, len(min)),
			Events: opsToEvents(min),
		})
	}

	if !opts.DefaultUnknown {
		for _, s := range scans {
			if v := checkScan(s, byKey, written, opts.Initial); v != nil {
				res.Violations = append(res.Violations, *v)
			}
		}
	}
	if opts.ColumnStatic {
		res.Violations = append(res.Violations, checkColScans(colScans, opts.ColumnBaseline)...)
	}
	return res
}

// pair matches invokes to responses by (client, seq). Unanswered or
// errored reads and scans are dropped (they constrain nothing);
// unanswered writes and ReturnLost writes become open-ended (ret = +inf).
func pair(events []history.Event) []*op {
	type ckey struct {
		client uint16
		seq    uint32
	}
	pending := map[ckey]*op{}
	var ops []*op
	for _, e := range events {
		k := ckey{e.Client, e.Seq}
		if e.Kind == history.Invoke {
			o := &op{
				client: e.Client, seq: e.Seq, kind: e.Op,
				inv: e.T, ret: math.MaxInt64,
				key: e.Key, val: e.Val,
				lo: e.Key, hi: e.Key2, pred: e.Pred,
				evI: e,
			}
			pending[k] = o
			ops = append(ops, o)
			continue
		}
		o := pending[k]
		if o == nil {
			continue // response without a recorded invoke (overflow): drop
		}
		delete(pending, k)
		o.hasR, o.evR = true, e
		switch e.Kind {
		case history.ReturnOK:
			o.ret = e.T
			switch o.kind {
			case history.OpLookup:
				o.found, o.val = e.Found, e.Val
			case history.OpScanRange, history.OpColScan:
				o.matched, o.sum = e.Val, e.Val2
			}
		case history.ReturnErr:
			o.kind = 255 // drop: definitely had no effect and observed nothing
		case history.ReturnLost:
			if o.kind == history.OpUpsert || o.kind == history.OpDelete {
				o.lost = true // may apply at any later point, or never
			} else {
				o.kind = 255 // lost read/scan observed nothing
			}
		}
	}
	// Unanswered ops: writes stay open-ended, reads/scans drop.
	for _, o := range pending {
		if o.kind == history.OpUpsert || o.kind == history.OpDelete {
			o.lost = true
		} else {
			o.kind = 255
		}
	}
	kept := ops[:0]
	for _, o := range ops {
		if o.kind != 255 {
			kept = append(kept, o)
		}
	}
	return kept
}

// checkKey searches for a sequential witness of one key's operations:
// true means linearizable. state: present/value, or unknown (pinned by
// the first linearized observation) when unknown is set.
func checkKey(ops []*op, present bool, val uint64, unknown bool) bool {
	n := len(ops)
	if n == 0 {
		return true
	}
	sorted := make([]*op, n)
	copy(sorted, ops)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].inv < sorted[j].inv })

	words := (n + 63) / 64
	type state struct {
		present bool
		unknown bool
		val     uint64
	}
	memoKey := func(done []uint64, s state) string {
		b := make([]byte, 0, words*8+10)
		for _, w := range done {
			for i := 0; i < 8; i++ {
				b = append(b, byte(w>>(8*i)))
			}
		}
		flags := byte(0)
		if s.present {
			flags |= 1
		}
		if s.unknown {
			flags |= 2
		}
		b = append(b, flags)
		for i := 0; i < 8; i++ {
			b = append(b, byte(s.val>>(8*i)))
		}
		return string(b)
	}
	memo := map[string]bool{} // visited-and-failed

	mustLinearize := 0
	for _, o := range sorted {
		if !o.lost {
			mustLinearize++
		}
	}

	done := make([]uint64, words)
	var dfs func(s state, remaining int) bool
	dfs = func(s state, remaining int) bool {
		if remaining == 0 {
			return true
		}
		mk := memoKey(done, s)
		if memo[mk] {
			return false
		}
		// Frontier: an op may be linearized next iff its invocation does
		// not follow the response of another un-linearized op.
		minRet := int64(math.MaxInt64)
		for i, o := range sorted {
			if done[i/64]&(1<<uint(i%64)) != 0 {
				continue
			}
			if o.ret < minRet {
				minRet = o.ret
			}
		}
		for i, o := range sorted {
			if done[i/64]&(1<<uint(i%64)) != 0 {
				continue
			}
			if o.inv > minRet {
				continue
			}
			next := s
			switch o.kind {
			case history.OpLookup:
				if s.unknown {
					// The first observation pins the unknown start state.
					next.unknown, next.present, next.val = false, o.found, o.val
				} else if o.found != s.present || (s.present && o.val != s.val) {
					continue // illegal observation in this state
				}
			case history.OpUpsert:
				next.unknown, next.present, next.val = false, true, o.val
			case history.OpDelete:
				next.unknown, next.present, next.val = false, false, 0
			}
			done[i/64] |= 1 << uint(i%64)
			rem := remaining
			if !o.lost {
				rem--
			}
			ok := dfs(next, rem)
			done[i/64] &^= 1 << uint(i%64)
			if ok {
				return true
			}
		}
		memo[mk] = true
		return false
	}
	return dfs(state{present: present, unknown: unknown, val: val}, mustLinearize)
}

// minimizeKey greedily removes operations while the remainder still fails,
// yielding a small reproducer for the violation dump. Lost writes are
// never load-bearing for a failure (they only add freedom), so greedy
// single-op removal converges to a compact core.
func minimizeKey(ops []*op, present bool, val uint64, unknown bool) []*op {
	cur := make([]*op, len(ops))
	copy(cur, ops)
	for i := 0; i < len(cur); {
		trial := make([]*op, 0, len(cur)-1)
		trial = append(trial, cur[:i]...)
		trial = append(trial, cur[i+1:]...)
		if !checkKey(trial, present, val, unknown) {
			cur = trial
			continue
		}
		i++
	}
	return cur
}

func opsToEvents(ops []*op) []history.Event {
	var out []history.Event
	for _, o := range ops {
		out = append(out, o.evI)
		if o.hasR {
			out = append(out, o.evR)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// checkScan bounds what a range-scan aggregate could possibly have
// observed during its window [inv, ret] and checks the observation
// against those bounds. Per key, the possible contribution set is
// over-approximated: a write w is possibly-observed iff it was invoked
// before the window closed and no other completed write is forced both
// after w and before the window opened; the initial state is possible
// iff no completed write returned before the window opened.
func checkScan(s *op, byKey map[uint64][]*op, written map[uint64]bool, initial []prefixtree.KV) *Violation {
	t1, t2 := s.inv, s.ret
	var minM, maxM, minS, maxS uint64

	// Untouched keys contribute their initial state verbatim.
	lo := sort.Search(len(initial), func(i int) bool { return initial[i].Key >= s.lo })
	for i := lo; i < len(initial) && initial[i].Key <= s.hi; i++ {
		kv := initial[i]
		if written[kv.Key] || !s.pred.Matches(kv.Value) {
			continue
		}
		minM++
		maxM++
		minS += kv.Value
		maxS += kv.Value
	}

	// Touched keys contribute a possible-contribution interval. Sums
	// assume no uint64 wrap across the aggregate (domain values are far
	// below overflow in every recorded workload).
	var evidence []history.Event
	for key, kops := range byKey {
		if key < s.lo || key > s.hi || !written[key] {
			continue
		}
		var states []struct {
			present bool
			val     uint64
		}
		add := func(present bool, val uint64) {
			states = append(states, struct {
				present bool
				val     uint64
			}{present, val})
		}
		anyRetBefore := false
		for _, w := range kops {
			if w.kind == history.OpLookup {
				continue
			}
			if !w.lost && w.ret <= t1 {
				anyRetBefore = true
			}
		}
		if !anyRetBefore {
			iv, ipresent := uint64(0), false
			ii := sort.Search(len(initial), func(i int) bool { return initial[i].Key >= key })
			if ii < len(initial) && initial[ii].Key == key {
				iv, ipresent = initial[ii].Value, true
			}
			add(ipresent, iv)
		}
		for _, w := range kops {
			if w.kind == history.OpLookup || w.inv >= t2 {
				continue
			}
			blocked := false
			for _, w2 := range kops {
				if w2 == w || w2.kind == history.OpLookup || w2.lost {
					continue
				}
				if w2.inv > w.ret && w2.ret <= t1 {
					blocked = true
					break
				}
			}
			if !blocked {
				add(w.kind == history.OpUpsert, w.val)
			}
		}
		kMinM, kMaxM := uint64(1), uint64(0)
		kMinS, kMaxS := uint64(math.MaxUint64), uint64(0)
		for _, st := range states {
			m, sum := uint64(0), uint64(0)
			if st.present && s.pred.Matches(st.val) {
				m, sum = 1, st.val
			}
			if m < kMinM {
				kMinM = m
			}
			if m > kMaxM {
				kMaxM = m
			}
			if sum < kMinS {
				kMinS = sum
			}
			if sum > kMaxS {
				kMaxS = sum
			}
		}
		if len(states) == 0 {
			// Every write completed before the window yet none is
			// unblocked — cannot happen (the latest such write is never
			// blocked); guard anyway.
			kMinM, kMinS = 0, 0
		}
		minM += kMinM
		maxM += kMaxM
		minS += kMinS
		maxS += kMaxS
		if kMinM != kMaxM || kMinS != kMaxS {
			// Ambiguous key: keep its write events as violation evidence.
			for _, w := range kops {
				if w.kind == history.OpLookup {
					continue
				}
				evidence = append(evidence, w.evI)
				if w.hasR {
					evidence = append(evidence, w.evR)
				}
			}
		}
	}

	if s.matched >= minM && s.matched <= maxM && s.sum >= minS && s.sum <= maxS {
		return nil
	}
	const maxEvidence = 64
	if len(evidence) > maxEvidence {
		evidence = evidence[:maxEvidence]
	}
	ev := append([]history.Event{s.evI, s.evR}, evidence...)
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].T < ev[j].T })
	return &Violation{
		Kind: "scan",
		Reason: fmt.Sprintf("scan [%d,%d] pred %+v observed (matched=%d, sum=%d), possible matched [%d,%d], sum [%d,%d]",
			s.lo, s.hi, s.pred, s.matched, s.sum, minM, maxM, minS, maxS),
		Events: ev,
	}
}

// checkColScans asserts static-column consistency: scans sharing a
// predicate agree with each other (and the baseline when pinned).
func checkColScans(scans []*op, baseline map[colstore.Predicate]Agg) []Violation {
	var out []Violation
	seen := map[colstore.Predicate]*op{}
	for _, s := range scans {
		want, pinned := baseline[s.pred]
		if !pinned {
			if first := seen[s.pred]; first == nil {
				seen[s.pred] = s
				continue
			} else {
				want = Agg{Matched: first.matched, Sum: first.sum}
			}
		}
		if s.matched != want.Matched || s.sum != want.Sum {
			out = append(out, Violation{
				Kind: "colscan",
				Reason: fmt.Sprintf("column scan %+v observed (matched=%d, sum=%d), want (%d, %d) on a static column",
					s.pred, s.matched, s.sum, want.Matched, want.Sum),
				Events: []history.Event{s.evI, s.evR},
			})
		}
	}
	return out
}
