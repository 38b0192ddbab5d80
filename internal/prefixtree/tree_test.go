package prefixtree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/topology"
)

type fixture struct {
	machine *numasim.Machine
	sys     *mem.System
	store   *Store
	sess    *Session
	tree    *Tree
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	machine, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys := mem.NewSystem(machine)
	store, err := NewStore(machine, sys.Node(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := store.NewSession()
	return &fixture{machine: machine, sys: sys, store: store, sess: sess, tree: NewTree(sess)}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{{}, {KeyBits: 16, PrefixBits: 4}, {KeyBits: 8, PrefixBits: 2}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	bad := []Config{
		{PrefixBits: 3},
		{KeyBits: 10, PrefixBits: 4},
		{KeyBits: 65},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestUpsertLookupBasic(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 32, PrefixBits: 8})
	if _, ok := f.tree.Lookup(0, 42, 1); ok {
		t.Fatal("empty tree found a key")
	}
	if !f.tree.Upsert(0, 42, 100, 1) {
		t.Fatal("first upsert not new")
	}
	if f.tree.Upsert(0, 42, 200, 1) {
		t.Fatal("second upsert of same key reported new")
	}
	v, ok := f.tree.Lookup(0, 42, 1)
	if !ok || v != 200 {
		t.Fatalf("lookup = (%d, %v), want (200, true)", v, ok)
	}
	if f.tree.Count() != 1 {
		t.Fatalf("count = %d", f.tree.Count())
	}
}

func TestAgainstReferenceMap(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 24, PrefixBits: 8})
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(1 << 20))
		v := rng.Uint64()
		f.tree.Upsert(0, k, v, 1)
		ref[k] = v
	}
	if got, want := f.tree.Count(), int64(len(ref)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	for k, v := range ref {
		got, ok := f.tree.Lookup(0, k, 1)
		if !ok || got != v {
			t.Fatalf("key %d: (%d,%v), want (%d,true)", k, got, ok, v)
		}
	}
	// Absent keys must stay absent.
	for i := 0; i < 1000; i++ {
		k := uint64(rng.Intn(1<<20)) | 1<<22
		if _, ok := f.tree.Lookup(0, k, 1); ok {
			t.Fatalf("found never-inserted key %d", k)
		}
	}
	if err := f.tree.CheckCounts(); err != nil {
		t.Fatal(err)
	}
}

func TestScanOrderAndBounds(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 16, PrefixBits: 4})
	keys := []uint64{5, 100, 1000, 65535, 0, 32768, 12345}
	for _, k := range keys {
		f.tree.Upsert(0, k, k*2, 1)
	}
	var got []uint64
	f.tree.Scan(0, 0, 65535, func(k, v uint64) bool {
		if v != k*2 {
			t.Errorf("key %d has value %d", k, v)
		}
		got = append(got, k)
		return true
	})
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Bounded scan.
	got = got[:0]
	n := f.tree.Scan(0, 100, 32768, func(k, v uint64) bool { got = append(got, k); return true })
	if n != 4 || got[0] != 100 || got[len(got)-1] != 32768 {
		t.Fatalf("bounded scan: n=%d keys=%v", n, got)
	}
	// Early termination.
	count := 0
	f.tree.Scan(0, 0, 65535, func(k, v uint64) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early-terminated scan visited %d", count)
	}
}

func TestScanPropertyAgainstSortedSlice(t *testing.T) {
	cfg := Config{KeyBits: 16, PrefixBits: 4}
	check := func(seedKeys []uint16, lo16, hi16 uint16) bool {
		f := newFixture(t, cfg)
		ref := map[uint64]bool{}
		for _, k16 := range seedKeys {
			k := uint64(k16)
			f.tree.Upsert(0, k, k, 1)
			ref[k] = true
		}
		lo, hi := uint64(lo16), uint64(hi16)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want []uint64
		for k := range ref {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []uint64
		f.tree.Scan(0, lo, hi, func(k, v uint64) bool { got = append(got, k); return true })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractLinkRoundtrip(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 24, PrefixBits: 8})
	rng := rand.New(rand.NewSource(3))
	ref := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(1 << 20))
		f.tree.Upsert(0, k, k+1, 1)
		ref[k] = k + 1
	}
	before := f.tree.Count()

	ex := f.tree.ExtractRange(0, 1<<18, 1<<19)
	var wantMoved int64
	for k := range ref {
		if k >= 1<<18 && k <= 1<<19 {
			wantMoved++
		}
	}
	if ex.Count() != wantMoved {
		t.Fatalf("extracted %d keys, want %d", ex.Count(), wantMoved)
	}
	if f.tree.Count() != before-wantMoved {
		t.Fatalf("tree count %d after extract, want %d", f.tree.Count(), before-wantMoved)
	}
	// Extracted keys are gone.
	for k := range ref {
		_, ok := f.tree.Lookup(0, k, 1)
		inRange := k >= 1<<18 && k <= 1<<19
		if ok == inRange {
			t.Fatalf("key %d: present=%v, inRange=%v", k, ok, inRange)
		}
	}
	if err := f.tree.CheckCounts(); err != nil {
		t.Fatalf("after extract: %v", err)
	}

	// Link into a second tree on the same store, then move back.
	other := NewTree(f.sess)
	other.Upsert(0, (1<<18)+7, 99, 1) // boundary-leaf merge case
	ref[(1<<18)+7] = 99
	otherBefore := other.Count()
	other.Link(0, ex)
	if other.Count() != otherBefore+wantMoved && other.Count() != otherBefore+wantMoved-1 {
		// (1<<18)+7 may or may not have been extracted depending on ref.
		t.Fatalf("other count %d", other.Count())
	}
	back := other.ExtractRange(0, 0, 1<<24-1)
	f.tree.Link(0, back)
	if err := f.tree.CheckCounts(); err != nil {
		t.Fatalf("after link back: %v", err)
	}
	for k, v := range ref {
		got, ok := f.tree.Lookup(0, k, 1)
		if !ok || got != v {
			t.Fatalf("after roundtrip key %d: (%d,%v) want (%d,true)", k, got, ok, v)
		}
	}
}

func TestExtractRangePropertyPartition(t *testing.T) {
	cfg := Config{KeyBits: 16, PrefixBits: 4}
	check := func(seedKeys []uint16, a16, b16 uint16) bool {
		f := newFixture(t, cfg)
		for _, k := range seedKeys {
			f.tree.Upsert(0, uint64(k), uint64(k), 1)
		}
		lo, hi := uint64(a16), uint64(b16)
		if lo > hi {
			lo, hi = hi, lo
		}
		total := f.tree.Count()
		ex := f.tree.ExtractRange(0, lo, hi)
		if f.tree.Count()+ex.Count() != total {
			return false
		}
		// Flatten and verify all extracted keys are in range and sorted.
		kvs := ex.Flatten(0)
		if int64(len(kvs)) != ex.Count() {
			return false
		}
		for i, kv := range kvs {
			if kv.Key < lo || kv.Key > hi {
				return false
			}
			if i > 0 && kvs[i-1].Key >= kv.Key {
				return false
			}
		}
		if err := f.tree.CheckCounts(); err != nil {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFlattenRebuildIdentity(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 24, PrefixBits: 8})
	rng := rand.New(rand.NewSource(11))
	ref := map[uint64]uint64{}
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(1 << 20))
		f.tree.Upsert(0, k, ^k, 1)
		ref[k] = ^k
	}
	ex := f.tree.ExtractRange(0, 0, f.store.MaxKey())
	kvs := ex.Flatten(0)
	if len(kvs) != len(ref) {
		t.Fatalf("flattened %d, want %d", len(kvs), len(ref))
	}
	ex.Discard(0, f.sess)

	// Rebuild on a different node's store (the "copy" transfer).
	store2, err := NewStore(f.machine, f.sys.Node(1), f.store.Config())
	if err != nil {
		t.Fatal(err)
	}
	sess2 := store2.NewSession()
	tree2 := NewTree(sess2)
	tree2.RebuildFrom(10, kvs) // core 10 lives on node 1
	if tree2.Count() != int64(len(ref)) {
		t.Fatalf("rebuilt count %d, want %d", tree2.Count(), len(ref))
	}
	for k, v := range ref {
		got, ok := tree2.Lookup(10, k, 1)
		if !ok || got != v {
			t.Fatalf("rebuilt key %d: (%d,%v)", k, got, ok)
		}
	}
	if err := tree2.CheckCounts(); err != nil {
		t.Fatal(err)
	}
}

func TestDiscardRecyclesNodes(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 16, PrefixBits: 8})
	for k := uint64(0); k < 1000; k++ {
		f.tree.Upsert(0, k, k, 1)
	}
	memBefore := f.store.MemoryBytes()
	ex := f.tree.ExtractRange(0, 0, 999)
	ex.Discard(0, f.sess)
	// Rebuilding the same data must reuse recycled nodes: no slab growth.
	for k := uint64(0); k < 1000; k++ {
		f.tree.Upsert(0, k, k, 1)
	}
	if got := f.store.MemoryBytes(); got != memBefore {
		t.Fatalf("store grew from %d to %d despite recycling", memBefore, got)
	}
}

func TestCountRange(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 16, PrefixBits: 4})
	for k := uint64(0); k < 1000; k++ {
		f.tree.Upsert(0, k*3, k, 1)
	}
	cases := []struct {
		lo, hi uint64
		want   int64
	}{
		{0, 65535, 1000},
		{0, 0, 1},
		{1, 2, 0},
		{0, 29, 10},
		{30, 59, 10},
		{2997, 65535, 1},
	}
	for _, c := range cases {
		if got := f.tree.Scan(0, c.lo, c.hi, func(_, _ uint64) bool { return true }); got != c.want {
			t.Errorf("Scan(%d,%d) visited %d keys, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestLookupBatchMatchesSingles(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 16, PrefixBits: 8})
	for k := uint64(0); k < 500; k += 2 {
		f.tree.Upsert(0, k, k+1, 1)
	}
	keys := []uint64{0, 1, 2, 3, 498, 499}
	values := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	f.tree.LookupBatch(0, keys, values, found)
	for i, k := range keys {
		wantFound := k%2 == 0
		if found[i] != wantFound {
			t.Errorf("key %d: found=%v", k, found[i])
		}
		if wantFound && values[i] != k+1 {
			t.Errorf("key %d: value=%d", k, values[i])
		}
	}
}

func TestBatchingIsCheaperPerOp(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 24, PrefixBits: 8})
	for k := uint64(0); k < 4096; k++ {
		f.tree.Upsert(0, k, k, 1)
	}
	// Sequential lookups on core 1, batched on core 2.
	for k := uint64(0); k < 1024; k++ {
		f.tree.Lookup(1, k*3%4096, 1)
	}
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i) * 3 % 4096
	}
	values := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	f.tree.LookupBatch(2, keys, values, found)
	if f.machine.Clock(2) >= f.machine.Clock(1) {
		t.Errorf("batched lookups (%d ps) should be cheaper than singles (%d ps)",
			f.machine.Clock(2), f.machine.Clock(1))
	}
}

func TestConcurrentSharedUpserts(t *testing.T) {
	machine, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys := mem.NewSystem(machine)
	store, err := NewInterleavedStore(machine, sys, Config{KeyBits: 24, PrefixBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewTree(store.NewLockedSession())
	var wg sync.WaitGroup
	const perWorker = 4000
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			core := topology.CoreID(worker)
			for i := 0; i < perWorker; i++ {
				k := uint64(worker*perWorker + i)
				tree.Upsert(core, k, k, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := tree.Count(); got != 8*perWorker {
		t.Fatalf("count = %d, want %d", got, 8*perWorker)
	}
	for w := 0; w < 8; w++ {
		for i := 0; i < perWorker; i += 97 {
			k := uint64(w*perWorker + i)
			if v, ok := tree.Lookup(0, k, 1); !ok || v != k {
				t.Fatalf("key %d: (%d,%v)", k, v, ok)
			}
		}
	}
	if err := tree.CheckCounts(); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedStoreSpreadsSlabs(t *testing.T) {
	machine, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys := mem.NewSystem(machine)
	store, err := NewInterleavedStore(machine, sys, Config{KeyBits: 24, PrefixBits: 8})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewTree(store.NewSession())
	for k := uint64(0); k < 100000; k++ {
		tree.Upsert(0, k, k, 1)
	}
	var withMem int
	for n := 0; n < 4; n++ {
		if sys.Node(topology.NodeID(n)).AllocatedBytes() > 0 {
			withMem++
		}
	}
	if withMem != 4 {
		t.Fatalf("interleaved store touched %d nodes, want 4", withMem)
	}
}

func TestKeyOutsideDomainPanics(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 16, PrefixBits: 8})
	defer func() {
		if recover() == nil {
			t.Error("oversized key did not panic")
		}
	}()
	f.tree.Upsert(0, 1<<20, 0, 1)
}

func TestSingleLevelTree(t *testing.T) {
	f := newFixture(t, Config{KeyBits: 8, PrefixBits: 8})
	for k := uint64(0); k < 256; k++ {
		f.tree.Upsert(0, k, k*7, 1)
	}
	if f.tree.Count() != 256 {
		t.Fatalf("count = %d", f.tree.Count())
	}
	v, ok := f.tree.Lookup(0, 200, 1)
	if !ok || v != 1400 {
		t.Fatalf("lookup = (%d,%v)", v, ok)
	}
	var n int
	f.tree.Scan(0, 10, 20, func(k, v uint64) bool { n++; return true })
	if n != 11 {
		t.Fatalf("scan visited %d", n)
	}
}
