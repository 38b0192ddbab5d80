package main

import (
	"fmt"
	"math/rand"
	"time"

	"eris"
	"eris/internal/client"
)

const (
	batchKeys = 64 // keys per point operation
	callers   = 2  // closed-loop callers; served workloads dial one connection each

	indexName  = "kv"
	columnName = "col"

	// seqBase keeps written values apart from preload values (key+1).
	seqBase = uint64(1) << 40

	colValueDomain = 1_000_000 // column values are splitmix64(i) mod this
	colPredWidth   = 100_000   // PredBetween(lo, lo+width): 10 % selectivity
	colPredicates  = 16

	mixedStride   = 16    // serve-mixed-wide keys are stride·slot
	mixedScanSpan = 65535 // ScanRange(lo, lo+span) covers 4096 slots
	mixedHotShare = 8     // 90 % of picks fall in the first 1/8 of the slots
)

// sizes are the data volumes of one invocation; the smoke test shrinks them.
type sizes struct {
	indexKeys   uint64 // dense keys of serve-lookup and serve-upsert-durable
	colPerAEU   int64  // column tuples per AEU of embed-colscan
	mixedSlots  uint64 // stride-16 keys of serve-mixed-wide
	sampleEvery uint64 // recovery verification checks one key in this many
}

var fullSizes = sizes{indexKeys: 4 << 20, colPerAEU: 8 << 20, mixedSlots: 2 << 20, sampleEvery: 4}

type opKind uint8

const (
	opLookup opKind = iota
	opUpsert
	opDelete
	opScanRange
	opColScan
	numOpKinds
)

var opKindNames = [numOpKinds]string{"lookup", "upsert", "delete", "scanrange", "colscan"}

// op is one generated operation and, after do, its answer.
type op struct {
	kind   opKind
	keys   []uint64  // lookup, delete: distinct, ascending
	kvs    []eris.KV // upsert: distinct, ascending by key
	lo, hi uint64    // scanrange
	pred   eris.Predicate

	got []eris.KV
	agg eris.ScanResult
	err error
}

// tuples is how many tuples the operation touched, for tuples_per_s.
func (o *op) tuples(colTuples int64) int64 {
	switch o.kind {
	case opLookup, opDelete:
		return int64(len(o.keys))
	case opUpsert:
		return int64(len(o.kvs))
	case opScanRange:
		return int64(o.agg.Matched)
	default:
		return colTuples
	}
}

// target is where a caller sends operations: its own client connection for a
// served workload, the in-process handles otherwise. Replays always use the
// in-process handles.
type target struct {
	cl  *client.Client
	obj uint32
	ix  *eris.Index
	col *eris.Column
}

func (t *target) served(o *op) {
	switch o.kind {
	case opLookup:
		o.got, o.err = t.cl.Lookup(t.obj, o.keys)
	case opUpsert:
		o.err = t.cl.Upsert(t.obj, o.kvs)
	case opDelete:
		o.err = t.cl.Delete(t.obj, o.keys)
	case opScanRange:
		var a client.ScanAggregate
		a, o.err = t.cl.ScanRange(t.obj, o.lo, o.hi, o.pred)
		o.agg = eris.ScanResult{Matched: a.Matched, Sum: a.Sum}
	case opColScan:
		var a client.ScanAggregate
		a, o.err = t.cl.ColScan(t.obj, o.pred)
		o.agg = eris.ScanResult{Matched: a.Matched, Sum: a.Sum}
	}
}

func (t *target) embedded(o *op) {
	switch o.kind {
	case opLookup:
		o.got, o.err = t.ix.Lookup(o.keys)
	case opUpsert:
		o.err = t.ix.Upsert(o.kvs)
	case opDelete:
		o.err = t.ix.Delete(o.keys)
	case opScanRange:
		o.agg, o.err = t.ix.ScanRange(o.lo, o.hi, o.pred)
	case opColScan:
		o.agg, o.err = t.col.Scan(o.pred)
	}
}

// model is one caller's generator and checker. gen fills o with the next
// operation from the caller's PRNG; check compares the answer with what the
// caller knows it wrote and, for an acknowledged write, records it. Each
// caller writes only keys of its own stripe, so its model is exact.
type model interface {
	gen(o *op)
	check(o *op) bool
}

// workload is one benchmark configuration.
type workload interface {
	served() bool
	options(dataDir string) eris.Options
	// build creates and loads the objects and starts the engine; it returns
	// the tuples loaded and the handles callers use.
	build(db *eris.DB) (int64, *target, error)
	newModel(caller int, rng *rand.Rand) model
	// keyOf is the i-th key of the loaded index, for the stand-alone tree
	// probe; a column workload has none.
	keyOf(i uint64) uint64
}

func newWorkload(name string, sz sizes, seed int64, corrupt bool) (workload, error) {
	switch name {
	case "serve-lookup":
		return &serveLookup{keys: sz.indexKeys, corrupt: corrupt}, nil
	case "serve-upsert-durable":
		return &serveUpsertDurable{keys: sz.indexKeys, sampleEvery: sz.sampleEvery, corrupt: corrupt}, nil
	case "embed-colscan":
		return newEmbedColscan(sz.colPerAEU, seed, corrupt), nil
	case "serve-mixed-wide":
		return &serveMixedWide{slots: sz.mixedSlots, corrupt: corrupt}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"serve-lookup", "serve-upsert-durable", "embed-colscan", "serve-mixed-wide"}

// stratified fills dst with len(dst) distinct ascending draws from [0, n):
// one uniform draw from each of len(dst) equal strata. Every value of the
// range is equally likely, and a batch never repeats a key.
func stratified(rng *rand.Rand, dst []uint64, n uint64) {
	width := n / uint64(len(dst))
	for i := range dst {
		dst[i] = uint64(i)*width + uint64(rng.Int63n(int64(width)))
	}
}

// splitmix64 is the column's value generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func preload(key uint64) uint64 { return key + 1 }

func loadDenseIndex(db *eris.DB, keys uint64) (*target, error) {
	ix, err := db.CreateIndex(indexName, keys)
	if err != nil {
		return nil, err
	}
	if err := ix.LoadDense(keys, preload); err != nil {
		return nil, err
	}
	return &target{ix: ix}, db.Start()
}

// ---- serve-lookup ----

type serveLookup struct {
	keys    uint64
	corrupt bool
}

func (w *serveLookup) served() bool { return true }
func (w *serveLookup) options(string) eris.Options {
	return eris.Options{Machine: "intel", Workers: 2, ListenAddr: "127.0.0.1:0"}
}

func (w *serveLookup) build(db *eris.DB) (int64, *target, error) {
	t, err := loadDenseIndex(db, w.keys)
	return int64(w.keys), t, err
}

func (w *serveLookup) keyOf(i uint64) uint64 { return i }

func (w *serveLookup) newModel(_ int, rng *rand.Rand) model {
	return &lookupModel{rng: rng, n: w.keys, corrupt: w.corrupt}
}

type lookupModel struct {
	rng     *rand.Rand
	n       uint64
	corrupt bool
}

func (m *lookupModel) gen(o *op) {
	o.kind = opLookup
	o.keys = o.keys[:batchKeys]
	stratified(m.rng, o.keys, m.n)
}

func (m *lookupModel) check(o *op) bool {
	if o.err != nil || len(o.got) != len(o.keys) {
		return false
	}
	for i, k := range o.keys {
		want := preload(k)
		if m.corrupt && i == 0 {
			want++
		}
		if o.got[i].Key != k || o.got[i].Value != want {
			return false
		}
	}
	return true
}

// ---- serve-upsert-durable ----

type serveUpsertDurable struct {
	keys        uint64
	sampleEvery uint64 // recovery verification checks one key in this many
	corrupt     bool
	models      [callers]*upsertModel
}

func (w *serveUpsertDurable) served() bool { return true }
func (w *serveUpsertDurable) options(dataDir string) eris.Options {
	return eris.Options{
		Machine: "intel", Workers: 2, ListenAddr: "127.0.0.1:0",
		DataDir: dataDir, SyncWrites: true, CheckpointEvery: 5 * time.Second,
	}
}

func (w *serveUpsertDurable) build(db *eris.DB) (int64, *target, error) {
	t, err := loadDenseIndex(db, w.keys)
	return int64(w.keys), t, err
}

func (w *serveUpsertDurable) keyOf(i uint64) uint64 { return i }

func (w *serveUpsertDurable) newModel(caller int, rng *rand.Rand) model {
	m := &upsertModel{rng: rng, caller: uint64(caller), last: make([]uint64, w.keys/callers)}
	m.draw = make([]uint64, batchKeys)
	w.models[caller] = m
	return m
}

// upsertModel remembers the last acknowledged value of every key of its
// stripe (key mod 2 == caller); 0 means the preload value still stands.
type upsertModel struct {
	rng    *rand.Rand
	caller uint64
	seq    uint64
	last   []uint64
	draw   []uint64
}

func (m *upsertModel) gen(o *op) {
	m.seq++
	o.kind = opUpsert
	o.kvs = o.kvs[:batchKeys]
	stratified(m.rng, m.draw, uint64(len(m.last)))
	for i, j := range m.draw {
		o.kvs[i] = eris.KV{Key: j*callers + m.caller, Value: seqBase + m.seq}
	}
}

func (m *upsertModel) check(o *op) bool {
	if o.err != nil {
		return false
	}
	for _, kv := range o.kvs {
		m.last[kv.Key/callers] = kv.Value
	}
	return true
}

// expected is the value key must hold after recovery.
func (w *serveUpsertDurable) expected(key uint64) uint64 {
	want := preload(key)
	if v := w.models[key%callers].last[key/callers]; v != 0 {
		want = v
	}
	if w.corrupt && key == 0 {
		want++
	}
	return want
}

// ---- embed-colscan ----

type embedColscan struct {
	perAEU  int64
	corrupt bool
	preds   [colPredicates]eris.Predicate
	matched [colPredicates]uint64
}

// newEmbedColscan draws the predicates from the seed and counts, outside any
// timed section, how many of the column's values each one matches.
func newEmbedColscan(perAEU int64, seed int64, corrupt bool) *embedColscan {
	w := &embedColscan{perAEU: perAEU, corrupt: corrupt}
	hist := make([]uint32, colValueDomain+1)
	for i := int64(0); i < 2*perAEU; i++ {
		hist[splitmix64(uint64(i))%colValueDomain+1]++
	}
	below := make([]uint64, len(hist)) // below[v] = values < v
	for v := 1; v < len(hist); v++ {
		below[v] = below[v-1] + uint64(hist[v])
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range w.preds {
		lo := uint64(rng.Int63n(colValueDomain - colPredWidth))
		w.preds[i] = eris.PredBetween(lo, lo+colPredWidth)
		w.matched[i] = below[lo+colPredWidth+1] - below[lo]
	}
	if corrupt {
		w.matched[0]++
	}
	return w
}

func (w *embedColscan) served() bool { return false }
func (w *embedColscan) options(string) eris.Options {
	return eris.Options{Machine: "intel", Workers: 2}
}

func (w *embedColscan) build(db *eris.DB) (int64, *target, error) {
	col, err := db.CreateColumn(columnName)
	if err != nil {
		return 0, nil, err
	}
	err = col.LoadUniform(w.perAEU, func(worker int, i int64) uint64 {
		return splitmix64(uint64(int64(worker)*w.perAEU+i)) % colValueDomain
	})
	if err != nil {
		return 0, nil, err
	}
	return 2 * w.perAEU, &target{col: col}, db.Start()
}

func (w *embedColscan) keyOf(uint64) uint64 { return 0 }

func (w *embedColscan) newModel(_ int, rng *rand.Rand) model {
	return &colscanModel{w: w, rng: rng}
}

type colscanModel struct {
	w    *embedColscan
	rng  *rand.Rand
	pick int
}

func (m *colscanModel) gen(o *op) {
	m.pick = m.rng.Intn(colPredicates)
	o.kind = opColScan
	o.pred = m.w.preds[m.pick]
}

func (m *colscanModel) check(o *op) bool {
	return o.err == nil && o.agg.Matched == m.w.matched[m.pick]
}

// ---- serve-mixed-wide ----

type serveMixedWide struct {
	slots   uint64
	corrupt bool
}

func (w *serveMixedWide) served() bool { return true }
func (w *serveMixedWide) options(string) eris.Options {
	return eris.Options{
		Machine: "intel", Workers: 8, ListenAddr: "127.0.0.1:0",
		Balancer: "ma8", BalancerIntervalSec: 0.01,
	}
}

func (w *serveMixedWide) build(db *eris.DB) (int64, *target, error) {
	ix, err := db.CreateIndex(indexName, w.slots*mixedStride)
	if err != nil {
		return 0, nil, err
	}
	if err := db.Start(); err != nil {
		return 0, nil, err
	}
	const loadBatch = 4096
	kvs := make([]eris.KV, 0, loadBatch)
	for slot := uint64(0); slot < w.slots; slot++ {
		kvs = append(kvs, eris.KV{Key: slot * mixedStride, Value: preload(slot * mixedStride)})
		if len(kvs) == loadBatch || slot == w.slots-1 {
			if err := ix.Upsert(kvs); err != nil {
				return 0, nil, err
			}
			kvs = kvs[:0]
		}
	}
	return int64(w.slots), &target{ix: ix}, nil
}

func (w *serveMixedWide) keyOf(i uint64) uint64 { return i * mixedStride }

func (w *serveMixedWide) newModel(caller int, rng *rand.Rand) model {
	m := &mixedModel{rng: rng, caller: uint64(caller), slots: w.slots, corrupt: w.corrupt}
	m.val = make([]uint64, w.slots/callers)
	for j := range m.val {
		m.val[j] = preload((uint64(j)*callers + m.caller) * mixedStride)
	}
	m.draw = make([]uint64, batchKeys)
	return m
}

// mixedModel holds the current value of every slot of its stripe (slot mod 2
// == caller); 0 means the caller deleted it.
type mixedModel struct {
	rng     *rand.Rand
	caller  uint64
	slots   uint64
	seq     uint64
	val     []uint64
	draw    []uint64
	corrupt bool
}

// drawKeys picks batchKeys distinct stripe indexes: nine ops in ten draw
// from the first 1/8 of the range, the rest from all of it.
func (m *mixedModel) drawKeys() {
	n := uint64(len(m.val))
	if m.rng.Intn(10) != 0 {
		n /= mixedHotShare
	}
	stratified(m.rng, m.draw, n)
}

func (m *mixedModel) key(j uint64) uint64 { return (j*callers + m.caller) * mixedStride }

func (m *mixedModel) fillKeys(o *op) {
	o.keys = o.keys[:batchKeys]
	for i, j := range m.draw {
		o.keys[i] = m.key(j)
	}
}

func (m *mixedModel) gen(o *op) {
	m.drawKeys()
	switch r := m.rng.Intn(100); {
	case r < 70:
		o.kind = opLookup
		m.fillKeys(o)
	case r < 90:
		m.seq++
		o.kind = opUpsert
		o.kvs = o.kvs[:batchKeys]
		for i, j := range m.draw {
			o.kvs[i] = eris.KV{Key: m.key(j), Value: seqBase + m.seq}
		}
	case r < 95:
		o.kind = opDelete
		m.fillKeys(o)
	default:
		o.kind = opScanRange
		o.lo = m.key(m.draw[0])
		o.hi = o.lo + mixedScanSpan
		o.pred = eris.PredAll()
	}
}

func (m *mixedModel) slot(key uint64) uint64 { return key / mixedStride / callers }

func (m *mixedModel) check(o *op) bool {
	if o.err != nil {
		return false
	}
	switch o.kind {
	case opLookup:
		g := 0
		for i, k := range o.keys {
			want := m.val[m.slot(k)]
			if m.corrupt && i == 0 {
				want++
			}
			if want == 0 {
				continue
			}
			if g >= len(o.got) || o.got[g].Key != k || o.got[g].Value != want {
				return false
			}
			g++
		}
		return g == len(o.got)
	case opUpsert:
		for _, kv := range o.kvs {
			m.val[m.slot(kv.Key)] = kv.Value
		}
	case opDelete:
		for _, k := range o.keys {
			m.val[m.slot(k)] = 0
		}
	case opScanRange:
		return o.agg.Matched <= (mixedScanSpan+1)/mixedStride
	}
	return true
}
