package aeu

import (
	"sync"
	"testing"
	"time"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/csbtree"
	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
)

const testObj routing.ObjectID = 1

// lookupOne looks up a single key: a one-key LookupBatch.
func lookupOne(tree *prefixtree.Tree, core topology.CoreID, key uint64) (uint64, bool) {
	var values [1]uint64
	var found [1]bool
	tree.LookupBatch(core, []uint64{key}, values[:], found[:])
	return values[0], found[0]
}

type harness struct {
	machine *numasim.Machine
	mems    *mem.System
	router  *routing.Router
	stores  map[topology.NodeID]*prefixtree.Store
	aeus    []*AEU
}

// newHarness builds n AEUs over the given topology with one
// range-partitioned index object split evenly over [0, domain).
func newHarness(t testing.TB, topo *topology.Topology, n int, domain uint64) *harness {
	t.Helper()
	return newHarnessRouting(t, topo, n, domain, routing.Config{})
}

// newHarnessRouting is newHarness with a routing configuration (buffer
// sizes, fault injector).
func newHarnessRouting(t testing.TB, topo *topology.Topology, n int, domain uint64, rcfg routing.Config) *harness {
	t.Helper()
	machine, err := numasim.New(topo, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mems := mem.NewSystem(machine)
	router, err := routing.New(machine, mems, n, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		machine: machine,
		mems:    mems,
		router:  router,
		stores:  make(map[topology.NodeID]*prefixtree.Store),
	}
	cfg := prefixtree.Config{KeyBits: 32, PrefixBits: 8}
	entries := make([]csbtree.Entry, n)
	span := domain / uint64(n)
	for i := 0; i < n; i++ {
		a := New(router, mems, uint32(i), Config{})
		node := a.Node
		store := h.stores[node]
		if store == nil {
			store, err = prefixtree.NewStore(machine, mems.Node(node), cfg)
			if err != nil {
				t.Fatal(err)
			}
			h.stores[node] = store
		}
		lo := uint64(i) * span
		hi := lo + span - 1
		if i == n-1 {
			hi = domain - 1
		}
		if _, err := a.AddIndexPartition(testObj, store, lo, hi); err != nil {
			t.Fatal(err)
		}
		entries[i] = csbtree.Entry{Low: lo, Owner: uint32(i)}
		h.aeus = append(h.aeus, a)
	}
	entries[0].Low = 0
	if err := router.RegisterRange(testObj, entries); err != nil {
		t.Fatal(err)
	}
	RegisterPeers(h.aeus)
	return h
}

// step runs one synchronous iteration of AEU i's loop.
func (h *harness) step(i int) { h.aeus[i].Step() }

func TestLookupAndUpsertProcessing(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	// Route upserts from AEU 0; keys land on both partitions.
	ob := h.aeus[0].Outbox()
	kvs := []prefixtree.KV{{Key: 10, Value: 100}, {Key: 600, Value: 6000}}
	ob.RouteUpsert(testObj, kvs, command.NoReply, 0, 0)
	ob.Flush()
	h.step(0)
	h.step(1)
	if got := h.aeus[0].Partition(testObj).Tree.Count(); got != 1 {
		t.Fatalf("aeu0 tree count = %d", got)
	}
	if got := h.aeus[1].Partition(testObj).Tree.Count(); got != 1 {
		t.Fatalf("aeu1 tree count = %d", got)
	}

	// Lookup with a client callback.
	var mu sync.Mutex
	var results []prefixtree.KV
	for _, a := range h.aeus {
		a.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
			mu.Lock()
			results = append(results, kvs...)
			mu.Unlock()
		})
	}
	ob.RouteLookup(testObj, []uint64{10, 600, 999}, ClientReply, 7, 0)
	ob.Flush()
	h.step(0)
	h.step(1)
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	mu.Lock()
	defer mu.Unlock()
	seen := map[uint64]uint64{}
	for _, kv := range results {
		seen[kv.Key] = kv.Value
	}
	if seen[10] != 100 || seen[600] != 6000 {
		t.Fatalf("results = %+v", results)
	}
}

func TestOpsCounted(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	ob := h.aeus[1].Outbox()
	ob.RouteLookup(testObj, []uint64{1, 2, 3, 501}, command.NoReply, 0, 0)
	ob.Flush()
	h.step(0)
	h.step(1)
	total := h.aeus[0].Stats().Ops + h.aeus[1].Stats().Ops
	if total != 4 {
		t.Fatalf("ops = %d, want 4", total)
	}
}

func TestForeignKeysForwarded(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	// Shrink AEU 1's bounds without telling the routing table: keys in
	// [500,750) now get forwarded back and forth; narrow the table instead
	// so the forward converges to AEU 0.
	h.aeus[1].Partition(testObj).Lo = 750
	h.aeus[0].Partition(testObj).Hi = 749
	if err := h.router.UpdateRange(testObj, []csbtree.Entry{
		{Low: 0, Owner: 0}, {Low: 750, Owner: 1},
	}); err != nil {
		t.Fatal(err)
	}
	// Seed the key where it will be found.
	h.aeus[0].Partition(testObj).Tree.Upsert(0, 600, 42, 1)

	// A stale client (old table view) sends the lookup to AEU 1 directly.
	h.router.Inject(1, &command.Command{
		Op: command.OpLookup, Object: uint32(testObj), Source: 1,
		ReplyTo: command.NoReply, Keys: []uint64{600},
	})
	h.step(1) // AEU 1 forwards
	if got := h.aeus[1].Stats().Forwards; got != 1 {
		t.Fatalf("forwards = %d", got)
	}
	h.step(0) // AEU 0 answers
	if got := h.aeus[0].Stats().Ops; got != 1 {
		t.Fatalf("aeu0 ops = %d", got)
	}
}

func TestBalanceFetchLinkSameNode(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	// Seed AEU 0 with keys 0..499.
	for k := uint64(0); k < 500; k++ {
		h.aeus[0].Partition(testObj).Tree.Upsert(0, k, k, 1)
	}
	var acks []uint64
	for _, a := range h.aeus {
		a.SetEpochDone(func(aeu uint32, obj routing.ObjectID, epoch uint64) {
			acks = append(acks, epoch)
		})
	}
	// Balancer: AEU 1 takes over [250, 499] from AEU 0.
	if err := h.router.UpdateRange(testObj, []csbtree.Entry{
		{Low: 0, Owner: 0}, {Low: 250, Owner: 1},
	}); err != nil {
		t.Fatal(err)
	}
	h.router.Inject(1, &command.Command{
		Op: command.OpBalance, Object: uint32(testObj), Source: 1,
		ReplyTo: command.NoReply,
		Balance: &command.Balance{
			Epoch: 5, NewLo: 250, NewHi: 999,
			Fetches: []command.Fetch{{From: 0, Lo: 250, Hi: 499}},
		},
	})
	h.router.Inject(0, &command.Command{
		Op: command.OpBalance, Object: uint32(testObj), Source: 0,
		ReplyTo: command.NoReply,
		Balance: &command.Balance{Epoch: 5, NewLo: 0, NewHi: 249},
	})
	h.step(0) // AEU 0 shrinks bounds, acks
	h.step(1) // AEU 1 adopts bounds, sends fetch
	h.step(0) // AEU 0 serves fetch, mails extracted subtree
	h.step(1) // AEU 1 links it, acks
	if len(acks) != 2 {
		t.Fatalf("acks = %v", acks)
	}
	if got := h.aeus[0].Partition(testObj).Tree.Count(); got != 250 {
		t.Fatalf("aeu0 count = %d", got)
	}
	if got := h.aeus[1].Partition(testObj).Tree.Count(); got != 250 {
		t.Fatalf("aeu1 count = %d", got)
	}
	// Moved keys are found at the new owner.
	v, ok := lookupOne(h.aeus[1].Partition(testObj).Tree, 1, 300)
	if !ok || v != 300 {
		t.Fatalf("moved key: (%d,%v)", v, ok)
	}
}

func TestBalanceFetchCopyCrossNode(t *testing.T) {
	h := newHarness(t, topology.Intel(), 40, 40000)
	src, dst := h.aeus[0], h.aeus[10] // nodes 0 and 1
	if src.Node == dst.Node {
		t.Fatal("test expects different nodes")
	}
	for k := uint64(0); k < 1000; k++ {
		src.Partition(testObj).Tree.Upsert(src.Core, k, k*3, 1)
	}
	e := h.machine.StartEpoch()
	h.router.Inject(dst.ID, &command.Command{
		Op: command.OpBalance, Object: uint32(testObj), Source: dst.ID,
		ReplyTo: command.NoReply,
		Balance: &command.Balance{
			Epoch: 9, NewLo: 500, NewHi: 20000,
			Fetches: []command.Fetch{{From: 0, Lo: 500, Hi: 999}},
		},
	})
	h.step(10) // dst sends fetch
	h.step(0)  // src flattens + ships
	h.step(10) // dst rebuilds
	if got := dst.Partition(testObj).Tree.Scan(dst.Core, 500, 999, func(_, _ uint64) bool { return true }); got != 500 {
		t.Fatalf("dst holds %d moved keys", got)
	}
	if got := src.Partition(testObj).Tree.Count(); got != 500 {
		t.Fatalf("src count = %d", got)
	}
	if e.TotalLinkBytes() == 0 {
		t.Error("cross-node copy produced no link traffic")
	}
	v, ok := lookupOne(dst.Partition(testObj).Tree, dst.Core, 700)
	if !ok || v != 2100 {
		t.Fatalf("moved key: (%d,%v)", v, ok)
	}
}

func TestDeferredCommandsReleasedAfterTransfer(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	for k := uint64(400); k < 500; k++ {
		h.aeus[0].Partition(testObj).Tree.Upsert(0, k, k, 1)
	}
	// AEU 1 is granted [400,499] but the data has not arrived yet.
	h.aeus[1].handleBalance(command.Command{
		Op: command.OpBalance, Object: uint32(testObj),
		Balance: &command.Balance{
			Epoch: 3, NewLo: 400, NewHi: 999,
			Fetches: []command.Fetch{{From: 0, Lo: 400, Hi: 499}},
		},
	})
	// A lookup for the pending range must be deferred, not missed.
	h.aeus[1].classify(command.Command{
		Op: command.OpLookup, Object: uint32(testObj), Source: 1,
		ReplyTo: command.NoReply, Keys: []uint64{450},
	})
	h.aeus[1].processGroups()
	if got := h.aeus[1].Stats().Ops; got != 0 {
		t.Fatalf("deferred lookup was executed (ops=%d)", got)
	}
	if got := h.aeus[1].Stats().Deferred; got != 1 {
		t.Fatalf("deferred = %d", got)
	}
	// Fetch flows to AEU 0; transfer comes back; deferred lookup executes
	// (requeued commands are reprocessed on the following iteration).
	h.aeus[1].Outbox().Flush()
	h.step(0)
	h.step(1)
	h.step(1)
	if got := h.aeus[1].Stats().Ops; got != 1 {
		t.Fatalf("ops after transfer = %d", got)
	}
}

func TestColumnScanSharing(t *testing.T) {
	machine, err := numasim.New(topology.SingleNode(2), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mems := mem.NewSystem(machine)
	router, err := routing.New(machine, mems, 2, routing.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a0 := New(router, mems, 0, Config{})
	a1 := New(router, mems, 1, Config{})
	RegisterPeers([]*AEU{a0, a1})
	const col routing.ObjectID = 2
	p0, err := a0.AddColumnPartition(col, colstore.Config{ChunkEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := router.RegisterSize(col, []uint32{0}); err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, 100)
	for i := range vals {
		vals[i] = uint64(i)
	}
	p0.Col.Append(0, vals)

	var mu sync.Mutex
	got := map[uint64][]prefixtree.KV{}
	a0.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
		mu.Lock()
		got[tag] = kvs
		mu.Unlock()
	})
	// Two scans multicast from AEU 1; both must be answered from one pass.
	ob := a1.Outbox()
	ob.RouteScan(col, colstore.Predicate{Op: colstore.Less, Operand: 10}, ClientReply, 1)
	ob.RouteScan(col, colstore.Predicate{Op: colstore.Greater, Operand: 89}, ClientReply, 2)
	ob.Flush()
	router.Drain(0, a0.classify)
	a0.processGroups()
	if len(got) != 2 {
		t.Fatalf("results = %+v", got)
	}
	if got[1][0].Key != 10 { // matched count
		t.Errorf("scan 1 matched %d", got[1][0].Key)
	}
	if got[2][0].Key != 10 {
		t.Errorf("scan 2 matched %d", got[2][0].Key)
	}
	// One shared pass: column scanned once for both commands -> ops 2 but
	// partition access counter counts commands.
	if ops := a0.Stats().Ops; ops != 2 {
		t.Errorf("ops = %d", ops)
	}
}

func TestRunLoopEndToEnd(t *testing.T) {
	h := newHarness(t, topology.SingleNode(4), 4, 4000)
	// Each AEU generates uniform lookups until its virtual clock passes
	// 200 us; keys were bulk-loaded first.
	for i, a := range h.aeus {
		for k := uint64(i) * 1000; k < uint64(i+1)*1000; k++ {
			a.Partition(testObj).Tree.Upsert(a.Core, k, k, 1)
		}
	}
	// The bulk load above already advanced the virtual clocks; measure the
	// run relative to the post-load time.
	base := make([]float64, len(h.aeus))
	for i, a := range h.aeus {
		base[i] = a.ClockNS()
	}
	for i, a := range h.aeus {
		start := base[i]
		a.Generator = GeneratorFunc(func(a *AEU) bool {
			if a.ClockNS() > start+200e3 {
				return false
			}
			keys := make([]uint64, 32)
			for i := range keys {
				keys[i] = uint64(a.Rng.Int63n(4000))
			}
			a.Outbox().RouteLookup(testObj, keys, command.NoReply, 0, 0)
			return true
		})
	}
	var wg sync.WaitGroup
	for _, a := range h.aeus {
		wg.Add(1)
		go func(a *AEU) {
			defer wg.Done()
			a.Run()
		}(a)
	}
	// Stop once every core passed the deadline plus drain slack.
	deadline := time.Now().Add(10 * time.Second)
	baseMin := h.machine.MinClock(0, 4)
	for h.machine.MinClock(0, 4) < baseMin+int64(300e6) { // +300 us in ps
		if time.Now().After(deadline) {
			t.Fatal("AEUs did not reach the virtual deadline in time")
		}
		time.Sleep(time.Millisecond)
	}
	for _, a := range h.aeus {
		a.Stop()
	}
	wg.Wait()
	var ops int64
	for _, a := range h.aeus {
		ops += a.Stats().Ops
	}
	if ops == 0 {
		t.Fatal("no operations executed")
	}
}

func TestDuplicatePartitionRejected(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	if _, err := h.aeus[0].AddIndexPartition(testObj, h.stores[0], 0, 1); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if _, err := h.aeus[0].AddColumnPartition(testObj, colstore.Config{}); err == nil {
		t.Fatal("duplicate column attach accepted")
	}
}

func TestPartitionSample(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	p := h.aeus[0].Partition(testObj)
	p.accesses.Add(10)
	p.cmdTimePS.Add(5000)
	p.cmdCount.Add(2)
	acc, mean := p.TakeSample()
	if acc != 10 || mean != 2500 {
		t.Fatalf("sample = (%d, %f)", acc, mean)
	}
	acc, mean = p.TakeSample()
	if acc != 0 || mean != 0 {
		t.Fatalf("second sample = (%d, %f)", acc, mean)
	}
}

func TestTimeline(t *testing.T) {
	tl := NewTimeline(10, 1)
	tl.Record(0.5e9, 100)
	tl.Record(0.6e9, 50)
	tl.Record(5.5e9, 10)
	tl.Record(-1, 1)   // clamps low
	tl.Record(1e12, 1) // clamps high
	s := tl.Series()   // 1 s bins: ops/s equals ops per bin
	total := 0.0
	for _, v := range s {
		total += v
	}
	if total != 162 {
		t.Fatalf("total = %f", total)
	}
	if s[0] != 151 || s[5] != 10 {
		t.Fatalf("series = %v", s)
	}
}
