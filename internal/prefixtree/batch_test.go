package prefixtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"eris/internal/cache"
	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/topology"
)

// side is one tree on its own machine. The equivalence tests drive two
// identical sides, one through the batch kernels and one through the
// per-key oracle, and compare results and machine state.
type side struct {
	machine *numasim.Machine
	reg     *metrics.Registry
	tree    *Tree
}

func newSide(t *testing.T, cfg Config, cacheScale float64, interleaved bool) *side {
	t.Helper()
	machine, err := numasim.New(topology.Intel(), numasim.Config{CacheScale: cacheScale})
	if err != nil {
		t.Fatal(err)
	}
	sys := mem.NewSystem(machine)
	var store *Store
	if interleaved {
		store, err = NewInterleavedStore(machine, sys, cfg)
	} else {
		store, err = NewStore(machine, sys.Node(0), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	machine.RegisterMetrics(reg)
	return &side{machine: machine, reg: reg, tree: NewTree(store.NewSession())}
}

// machineState is everything the cost model accumulates: every core clock,
// every link, memory-controller and link-local byte counter, and the LLC
// statistics.
type machineState struct {
	clocks []int64
	bytes  map[string]int64
	cache  cache.Stats
}

func (s *side) state() machineState {
	st := machineState{bytes: s.reg.Snapshot().Counters}
	for c := 0; c < s.machine.Topology().NumCores(); c++ {
		st.clocks = append(st.clocks, s.machine.Clock(topology.CoreID(c)))
	}
	if c := s.machine.Cache(); c != nil {
		st.cache = c.TotalStats()
	}
	return st
}

func (st machineState) clockSum() int64 {
	var sum int64
	for _, c := range st.clocks {
		sum += c
	}
	return sum
}

func requireSameState(t *testing.T, phase string, kern, orc *side) {
	t.Helper()
	a, b := kern.state(), orc.state()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: machine state differs\nkernels: %+v\noracle:  %+v", phase, a, b)
	}
	for _, s := range []*side{kern, orc} {
		if err := s.tree.CheckCounts(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
	}
	if kern.tree.Count() != orc.tree.Count() {
		t.Fatalf("%s: count %d != oracle %d", phase, kern.tree.Count(), orc.tree.Count())
	}
}

func within(a, b int64, frac float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return float64(d) <= frac*float64(max(a, b))
}

// batches cuts keys into batches of n.
func batches[T any](keys []T, n int) [][]T {
	var out [][]T
	for len(keys) > 0 {
		k := min(n, len(keys))
		out = append(out, keys[:k])
		keys = keys[k:]
	}
	return out
}

func TestBatchKernelsMatchOracle(t *testing.T) {
	for _, pb := range []int{2, 4, 8} {
		for _, kb := range []int{24, 64} {
			for _, scale := range []float64{0, 64} {
				for _, interleaved := range []bool{false, true} {
					cfg := Config{KeyBits: kb, PrefixBits: pb}
					name := fmt.Sprintf("prefix%d/key%d/cache%v/interleaved=%v", pb, kb, scale, interleaved)
					t.Run(name, func(t *testing.T) { checkKernelsMatchOracle(t, cfg, scale, interleaved) })
				}
			}
		}
	}
}

func checkKernelsMatchOracle(t *testing.T, cfg Config, cacheScale float64, interleaved bool) {
	kern := newSide(t, cfg, cacheScale, interleaved)
	orc := newSide(t, cfg, cacheScale, interleaved)
	topo := kern.machine.Topology()
	local := topology.CoreID(1)
	remote, _ := topo.CoresOfNode(2)
	rng := rand.New(rand.NewSource(int64(cfg.KeyBits*10 + cfg.PrefixBits)))

	// Dense keys sit high in the domain so the upper levels branch; stride
	// keys start at 0; absent keys are never inserted (past the dense run,
	// and between the stride keys).
	denseBase := (kern.tree.Store().MaxKey() / 5) &^ 4095
	var dense, stride, absent []uint64
	for i := uint64(0); i < 2048; i++ {
		dense = append(dense, denseBase+i)
	}
	for i := uint64(0); i < 1024; i++ {
		stride = append(stride, i*16)
		absent = append(absent, denseBase+2048+i*7, i*16+8)
	}
	kvs := func(keys []uint64, salt uint64) []KV {
		out := make([]KV, len(keys))
		for i, k := range keys {
			out[i] = KV{Key: k, Value: k*31 + salt}
		}
		return out
	}
	shuffled := func(keys ...[]uint64) []uint64 {
		var out []uint64
		for _, ks := range keys {
			out = append(out, ks...)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}

	// Writes and scans keep the per-key access order, so they match the
	// oracle exactly under the LLC model too.
	upserts := []struct {
		core topology.CoreID
		kvs  []KV
	}{
		{local, kvs(shuffled(dense), 1)},
		{remote, kvs(shuffled(stride), 2)},
		{remote, kvs(shuffled(dense[:700], stride[:300]), 3)}, // overwrites
	}
	for _, u := range upserts {
		for _, b := range batches(u.kvs, 32) {
			if got, want := kern.tree.UpsertBatch(u.core, b), oracleUpsertBatch(orc.tree, u.core, b); got != want {
				t.Fatalf("UpsertBatch fresh = %d, oracle %d", got, want)
			}
		}
	}
	requireSameState(t, "upsert", kern, orc)

	for _, r := range [][2]uint64{{0, ^uint64(0)}, {denseBase + 100, denseBase + 1500}, {17, 5000}, {denseBase + 2040, denseBase + 9000}} {
		for _, limit := range []int{-1, 50} {
			collect := func(dst *[]KV) func(k, v uint64) bool {
				return func(k, v uint64) bool {
					*dst = append(*dst, KV{k, v})
					return len(*dst) != limit
				}
			}
			var a, b []KV
			na := kern.tree.Scan(remote, r[0], r[1], collect(&a))
			nb := oracleScan(orc.tree, remote, r[0], r[1], collect(&b))
			if na != nb || !reflect.DeepEqual(a, b) {
				t.Fatalf("Scan [%d,%d] limit %d: %d keys, oracle %d", r[0], r[1], limit, na, nb)
			}
		}
	}
	requireSameState(t, "scan", kern, orc)

	var gone []uint64
	for i := 0; i < len(dense); i += 3 {
		gone = append(gone, dense[i])
	}
	for _, b := range batches(shuffled(gone, stride[500:600], absent[:200]), 32) {
		if got, want := kern.tree.DeleteBatch(local, b), oracleDeleteBatch(orc.tree, local, b); got != want {
			t.Fatalf("DeleteBatch removed = %d, oracle %d", got, want)
		}
	}
	requireSameState(t, "delete", kern, orc)

	// Lookups descend level by level, so the LLC model sees a different
	// access order than the oracle's; off, the totals cannot tell.
	before := kern.state()
	probe := shuffled(dense, stride, absent)
	for _, core := range []topology.CoreID{local, remote} {
		for _, b := range batches(probe, 32) {
			gv, gf := make([]uint64, len(b)), make([]bool, len(b))
			wv, wf := make([]uint64, len(b)), make([]bool, len(b))
			kern.tree.LookupBatch(core, b, gv, gf)
			oracleLookupBatch(orc.tree, core, b, wv, wf)
			if !reflect.DeepEqual(gv, wv) || !reflect.DeepEqual(gf, wf) {
				t.Fatalf("LookupBatch on core %d differs from the oracle", core)
			}
		}
	}
	if cacheScale == 0 {
		requireSameState(t, "lookup", kern, orc)
		return
	}
	a, b := kern.state(), orc.state()
	clockA, clockB := a.clockSum()-before.clockSum(), b.clockSum()-before.clockSum()
	missA, missB := int64(a.cache.Misses-before.cache.Misses), int64(b.cache.Misses-before.cache.Misses)
	if !within(clockA, clockB, 0.01) || !within(missA, missB, 0.01) {
		t.Fatalf("lookup under the LLC model: clock %d ps / %d misses, oracle %d ps / %d misses",
			clockA, missA, clockB, missB)
	}
}

// TestConcurrentBatchLookupsSeeWrittenValues runs level-synchronous lookup
// batches against concurrent upsert batches on the shared baseline's
// locked-session tree: every lookup must see a key absent or holding a
// value some writer stored for it.
func TestConcurrentBatchLookupsSeeWrittenValues(t *testing.T) {
	machine, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewInterleavedStore(machine, mem.NewSystem(machine), Config{KeyBits: 32, PrefixBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree := NewTree(store.NewLockedSession())
	const keys, rounds = 1 << 12, 8
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			batch := make([]KV, 32)
			for r := 0; r < rounds; r++ {
				for n := 0; n < keys/len(batch); n++ {
					for i := range batch {
						k := uint64(rng.Intn(keys)) * 977
						batch[i] = KV{Key: k, Value: k<<8 | uint64(w*rounds+r)}
					}
					tree.UpsertBatch(topology.CoreID(w), batch)
				}
			}
		}(w)
	}
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			batch := make([]uint64, 64)
			values, found := make([]uint64, len(batch)), make([]bool, len(batch))
			for n := 0; n < 400; n++ {
				for i := range batch {
					batch[i] = uint64(rng.Intn(keys)) * 977
				}
				tree.LookupBatch(topology.CoreID(8+r), batch, values, found)
				for i, k := range batch {
					if found[i] && (values[i]>>8 != k || values[i]&0xff >= 2*rounds) {
						errs <- fmt.Errorf("key %d read %#x, which no writer stored", k, values[i])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tree.CheckCounts(); err != nil {
		t.Fatal(err)
	}
}
