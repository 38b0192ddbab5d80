package routing

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/csbtree"
	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/topology"
)

func newRouter(t testing.TB, numAEUs int, cfg Config) *Router {
	t.Helper()
	machine, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(machine, mem.NewSystem(machine), numAEUs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// uniformRanges builds an even partitioning of [0, 1<<20) over n AEUs.
func uniformRanges(n int) []csbtree.Entry {
	entries := make([]csbtree.Entry, n)
	span := uint64(1<<20) / uint64(n)
	for i := range entries {
		entries[i] = csbtree.Entry{Low: uint64(i) * span, Owner: uint32(i)}
	}
	entries[0].Low = 0
	return entries
}

// TestRegisterWhileRouting registers objects while 4 goroutines resolve
// owners of an existing one: the object table is read latch-free and
// replaced copy-on-write, so readers never block and always see every
// object registered before they started (run it under -race).
func TestRegisterWhileRouting(t *testing.T) {
	r := newRouter(t, 4, Config{})
	if err := r.RegisterRange(1, uniformRanges(4)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			keys := []uint64{0, 1 << 18, 1 << 19, 3 << 18, 1<<20 - 1}
			want := []uint32{0, 1, 2, 3, 3}
			owners := make([]uint32, len(keys))
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.OwnersSorted(1, keys, owners)
				for i, o := range owners {
					if o != want[i] {
						errs <- fmt.Errorf("owner of %d = %d", keys[i], o)
						return
					}
				}
				if o := r.Owner(1, 1<<19); o != 2 {
					errs <- fmt.Errorf("Owner(1<<19) = %d, want 2", o)
					return
				}
			}
		}()
	}
	for id := ObjectID(2); id < 66; id++ {
		var err error
		if id%2 == 0 {
			err = r.RegisterRange(id, uniformRanges(4))
		} else {
			err = r.RegisterSize(id, []uint32{0, 1})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for id := ObjectID(1); id < 66; id++ {
		want := RangePartitioned
		if id%2 == 1 && id > 1 {
			want = SizePartitioned
		}
		if got := r.Kind(id); got != want {
			t.Fatalf("object %d has kind %d, want %d", id, got, want)
		}
	}
}

func TestRegisterAndOwnership(t *testing.T) {
	r := newRouter(t, 4, Config{})
	if err := r.RegisterRange(1, uniformRanges(4)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterRange(1, uniformRanges(4)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if got := r.Owner(1, 0); got != 0 {
		t.Errorf("owner(0) = %d", got)
	}
	if got := r.Owner(1, 1<<20-1); got != 3 {
		t.Errorf("owner(max) = %d", got)
	}
	if r.Kind(1) != RangePartitioned {
		t.Error("wrong kind")
	}
}

func TestRouteLookupSplitsByOwner(t *testing.T) {
	r := newRouter(t, 4, Config{})
	if err := r.RegisterRange(1, uniformRanges(4)); err != nil {
		t.Fatal(err)
	}
	ob := r.Outbox(0)
	span := uint64(1 << 18)
	keys := []uint64{1, span + 1, 2 * span, 3 * span, 5, 3*span + 7}
	n := ob.RouteLookup(1, keys, command.NoReply, 42, 0)
	if n != 4 {
		t.Fatalf("routed to %d targets, want 4", n)
	}
	ob.Flush()
	// Each AEU drains its inbox and must see exactly its own keys.
	wantKeys := map[uint32][]uint64{
		0: {1, 5}, 1: {span + 1}, 2: {2 * span}, 3: {3 * span, 3*span + 7},
	}
	for aeu := uint32(0); aeu < 4; aeu++ {
		var got []uint64
		r.Drain(aeu, func(c command.Command) {
			if c.Op != command.OpLookup || c.Object != 1 || c.Source != 0 || c.Tag != 42 {
				t.Errorf("aeu %d: bad command %+v", aeu, c)
			}
			got = append(got, c.Keys...)
		})
		want := wantKeys[aeu]
		if len(got) != len(want) {
			t.Fatalf("aeu %d got keys %v, want %v", aeu, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("aeu %d got keys %v, want %v", aeu, got, want)
			}
		}
	}
}

func TestRouteUpsert(t *testing.T) {
	r := newRouter(t, 2, Config{})
	entries := []csbtree.Entry{{Low: 0, Owner: 0}, {Low: 100, Owner: 1}}
	if err := r.RegisterRange(7, entries); err != nil {
		t.Fatal(err)
	}
	ob := r.Outbox(1)
	kvs := []prefixtree.KV{{Key: 5, Value: 50}, {Key: 200, Value: 2000}}
	ob.RouteUpsert(7, kvs, command.NoReply, 0, 0)
	ob.Flush()
	var got0, got1 []prefixtree.KV
	r.Drain(0, func(c command.Command) { got0 = append(got0, c.KVs...) })
	r.Drain(1, func(c command.Command) { got1 = append(got1, c.KVs...) })
	if len(got0) != 1 || got0[0].Key != 5 || got0[0].Value != 50 {
		t.Errorf("aeu0 kvs = %+v", got0)
	}
	if len(got1) != 1 || got1[0].Key != 200 {
		t.Errorf("aeu1 kvs = %+v", got1)
	}
}

func TestMulticastScan(t *testing.T) {
	r := newRouter(t, 4, Config{})
	if err := r.RegisterSize(2, []uint32{0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ob := r.Outbox(1)
	n := ob.RouteScan(2, colstore.Predicate{Op: colstore.Less, Operand: 99}, 1, 7)
	if n != 3 {
		t.Fatalf("multicast to %d targets", n)
	}
	ob.Flush()
	for _, aeu := range []uint32{0, 2, 3} {
		count := 0
		r.Drain(aeu, func(c command.Command) {
			count++
			if c.Op != command.OpScan || c.Pred.Operand != 99 || c.ReplyTo != 1 || c.Tag != 7 {
				t.Errorf("aeu %d: %+v", aeu, c)
			}
		})
		if count != 1 {
			t.Errorf("aeu %d saw %d commands", aeu, count)
		}
	}
	// AEU 1 holds nothing and must see nothing.
	if n := r.Drain(1, func(command.Command) {}); n != 0 {
		t.Errorf("non-holder received %d commands", n)
	}
	// All multicast references consumed: slot reusable.
	if got := r.Outbox(1).mcast[0].refs.Load(); got != 0 {
		t.Errorf("dangling refs: %d", got)
	}
}

// TestMulticastBeyondSlotsNeverWaits: one goroutine multicasts twice as
// many scans as the multicast table has slots, with no drain in between.
// Once every slot is referenced the rest go inline, so every call returns,
// and each holder then drains every scan exactly once.
func TestMulticastBeyondSlotsNeverWaits(t *testing.T) {
	r := newRouter(t, 4, Config{})
	holders := []uint32{0, 2, 3}
	if err := r.RegisterSize(2, holders); err != nil {
		t.Fatal(err)
	}
	const scans = 2 * multicastSlots
	ob := r.Outbox(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for tag := uint64(0); tag < scans; tag++ {
			ob.RouteScan(2, colstore.Predicate{Op: colstore.Less, Operand: 99}, 1, tag)
		}
		ob.Flush()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d multicasts with no drain still running after 10s", scans)
	}
	for _, aeu := range holders {
		seen := make([]bool, scans)
		r.Drain(aeu, func(c command.Command) {
			if c.Op != command.OpScan || c.Tag >= scans || seen[c.Tag] {
				t.Fatalf("aeu %d: unexpected or repeated %+v", aeu, c)
			}
			seen[c.Tag] = true
		})
		for tag, ok := range seen {
			if !ok {
				t.Fatalf("aeu %d never received scan %d", aeu, tag)
			}
		}
	}
	for slot := range ob.mcast {
		if got := ob.mcast[slot].refs.Load(); got != 0 {
			t.Fatalf("slot %d: %d dangling refs", slot, got)
		}
	}
}

func TestAutoFlushOnFullBuffer(t *testing.T) {
	r := newRouter(t, 2, Config{OutBufBytes: 128})
	if err := r.RegisterRange(1, []csbtree.Entry{{Low: 0, Owner: 1}}); err != nil {
		t.Fatal(err)
	}
	ob := r.Outbox(0)
	// Each lookup command is ~40 bytes; routing many must auto-flush.
	for i := 0; i < 50; i++ {
		ob.RouteLookup(1, []uint64{uint64(i)}, command.NoReply, 0, 0)
	}
	if ob.Stats().Flushes == 0 {
		t.Fatal("no auto flush despite tiny buffer")
	}
	ob.Flush()
	total := 0
	r.Drain(1, func(c command.Command) { total += len(c.Keys) })
	if total != 50 {
		t.Fatalf("delivered %d keys, want 50", total)
	}
}

func TestUpdateRangeRedirects(t *testing.T) {
	r := newRouter(t, 2, Config{})
	if err := r.RegisterRange(1, []csbtree.Entry{{Low: 0, Owner: 0}}); err != nil {
		t.Fatal(err)
	}
	if got := r.Owner(1, 500); got != 0 {
		t.Fatalf("owner = %d", got)
	}
	if err := r.UpdateRange(1, []csbtree.Entry{{Low: 0, Owner: 0}, {Low: 100, Owner: 1}}); err != nil {
		t.Fatal(err)
	}
	if got := r.Owner(1, 500); got != 1 {
		t.Fatalf("owner after update = %d", got)
	}
}

func TestInboxDescriptorProtocol(t *testing.T) {
	machine, _ := numasim.New(topology.SingleNode(4), numasim.Config{})
	sys := mem.NewSystem(machine)
	in := newInbox(sys.Node(0), 1024, metrics.NewRegistry(), 0)
	in.Append([]byte("hello"))
	in.Append([]byte("world"))
	got := in.Swap()
	if string(got) != "helloworld" {
		t.Fatalf("payload = %q", got)
	}
	// Second swap returns empty.
	if got := in.Swap(); len(got) != 0 {
		t.Fatalf("second swap = %q", got)
	}
	// Writes after swap land in the other buffer.
	in.Append([]byte("x"))
	if got := in.Swap(); string(got) != "x" {
		t.Fatalf("third swap = %q", got)
	}
	st := in.Stats()
	if st.Appends != 3 || st.Swaps != 3 || st.Bytes != 11 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInboxConcurrentWriters: writers append numbered records into a
// buffer small enough that most spill to the overflow queue while the owner
// swaps. Every record arrives whole, and each writer's arrive in the order
// it appended them.
func TestInboxConcurrentWriters(t *testing.T) {
	machine, _ := numasim.New(topology.SingleNode(4), numasim.Config{})
	sys := mem.NewSystem(machine)
	in := newInbox(sys.Node(0), 256, metrics.NewRegistry(), 0)
	const writers, per, recBytes = 8, 500, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			// Record: [id][seq, 4 bytes][id id id].
			rec := make([]byte, recBytes)
			for i := 0; i < per; i++ {
				for j := range rec {
					rec[j] = id
				}
				binary.LittleEndian.PutUint32(rec[1:], uint32(i))
				in.Append(rec)
			}
		}(byte(w + 1))
	}
	// Owner concurrently swaps and validates records.
	next := make(map[byte]int) // each writer's next expected sequence number
	check := func(payload []byte) {
		if len(payload)%recBytes != 0 {
			t.Fatalf("payload of %d bytes is not whole records", len(payload))
		}
		for off := 0; off < len(payload); off += recBytes {
			id := payload[off]
			for j := 5; j < recBytes; j++ {
				if payload[off+j] != id {
					t.Fatalf("torn record at %d: %v", off, payload[off:off+recBytes])
				}
			}
			seq := int(binary.LittleEndian.Uint32(payload[off+1:]))
			if seq != next[id] {
				t.Fatalf("writer %d: record %d arrived, want %d", id, seq, next[id])
			}
			next[id]++
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		check(in.Swap())
		select {
		case <-done:
			check(in.Swap())
			check(in.Swap())
			for w := 0; w < writers; w++ {
				if next[byte(w+1)] != per {
					t.Fatalf("writer %d: %d records, want %d", w+1, next[byte(w+1)], per)
				}
			}
			if in.Stats().Overflows == 0 {
				t.Fatal("no append took the overflow path; shrink the buffer")
			}
			return
		default:
		}
	}
}

func TestInboxOverflowValve(t *testing.T) {
	machine, _ := numasim.New(topology.SingleNode(4), numasim.Config{})
	sys := mem.NewSystem(machine)
	in := newInbox(sys.Node(0), 16, metrics.NewRegistry(), 0)
	in.Append([]byte("0123456789abcdef")) // fills the buffer exactly
	// Next append cannot fit; with no owner swapping it diverts to the
	// overflow queue at once.
	in.Append([]byte("zz"))
	if in.Stats().Overflows != 1 {
		t.Fatalf("overflows = %d", in.Stats().Overflows)
	}
	payload := in.Swap()
	if string(payload) != "0123456789abcdefzz" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestFlushChargesRemoteTraffic(t *testing.T) {
	r := newRouter(t, 40, Config{})
	if err := r.RegisterRange(1, []csbtree.Entry{{Low: 0, Owner: 39}}); err != nil {
		t.Fatal(err) // AEU 39 lives on node 3
	}
	e := r.Machine().StartEpoch()
	ob := r.Outbox(0) // node 0
	ob.RouteLookup(1, []uint64{1, 2, 3}, command.NoReply, 0, 0)
	ob.Flush()
	if got := e.TotalLinkBytes(); got == 0 {
		t.Error("remote flush produced no link traffic")
	}
}

func TestManyAEUsAllToAll(t *testing.T) {
	r := newRouter(t, 40, Config{OutBufBytes: 512})
	if err := r.RegisterRange(1, func() []csbtree.Entry {
		entries := make([]csbtree.Entry, 40)
		for i := range entries {
			entries[i] = csbtree.Entry{Low: uint64(i) << 10, Owner: uint32(i)}
		}
		entries[0].Low = 0
		return entries
	}()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const perAEU = 200
	for a := 0; a < 40; a++ {
		wg.Add(1)
		go func(aeu uint32) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(aeu)))
			ob := r.Outbox(aeu)
			keys := make([]uint64, 16)
			for i := 0; i < perAEU/len(keys); i++ {
				for j := range keys {
					keys[j] = uint64(rng.Int63()) % (40 << 10)
				}
				ob.RouteLookup(1, keys, command.NoReply, 0, 0)
			}
			ob.Flush()
		}(uint32(a))
	}
	wg.Wait()
	totalKeys := 0
	for a := uint32(0); a < 40; a++ {
		r.Drain(a, func(c command.Command) {
			for _, k := range c.Keys {
				if r.Owner(1, k) != a {
					t.Errorf("aeu %d received foreign key %d", a, k)
				}
			}
			totalKeys += len(c.Keys)
		})
	}
	if totalKeys != 40*perAEU-40*perAEU%16 {
		// Each AEU routed floor(perAEU/16)*16 keys.
		want := 40 * (perAEU / 16) * 16
		if totalKeys != want {
			t.Fatalf("delivered %d keys, want %d", totalKeys, want)
		}
	}
}

func TestNewRejectsBadAEUCount(t *testing.T) {
	machine, _ := numasim.New(topology.SingleNode(2), numasim.Config{})
	sys := mem.NewSystem(machine)
	if _, err := New(machine, sys, 0, Config{}); err == nil {
		t.Error("zero AEUs accepted")
	}
	if _, err := New(machine, sys, 3, Config{}); err == nil {
		t.Error("more AEUs than cores accepted")
	}
}

func TestObjectString(t *testing.T) {
	r := newRouter(t, 4, Config{})
	_ = r.RegisterRange(1, uniformRanges(4))
	_ = r.RegisterSize(2, []uint32{0, 1})
	for id, want := range map[ObjectID]string{
		1: "range-partitioned (4 ranges)",
		2: "size-partitioned (2 holders)",
	} {
		if got := r.object(id).String(); got != want {
			t.Errorf("object %d: %q, want %q", id, got, want)
		}
	}
	_ = fmt.Sprintf("%v", r.object(1))
}

// streamPS returns what streaming bytes through node 0's memory costs a core,
// measured on an otherwise idle core of a machine like r's.
func streamPS(t *testing.T, bytes int) int64 {
	t.Helper()
	ref, err := numasim.New(topology.Intel(), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Stream(5, 0, int64(bytes))
	return ref.Clock(5)
}

// TestRouteBatchChargesThreeNSPerKey pins the routing cost model: routing N
// keys charges the source core 3 ns per key (plus the local buffer write),
// whether the batch is resolved per key or in one sorted merge.
func TestRouteBatchChargesThreeNSPerKey(t *testing.T) {
	for _, n := range []int{5, 40} {
		r := newRouter(t, 4, Config{})
		if err := r.RegisterRange(1, []csbtree.Entry{{Low: 0, Owner: 2}}); err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(n - i)
		}
		before := r.Machine().Clock(0)
		if got := r.Outbox(0).RouteLookup(1, keys, command.NoReply, 0, 0); got != 1 {
			t.Fatalf("n=%d: routed %d commands, want 1", n, got)
		}
		cmd := command.Command{Op: command.OpLookup, Object: 1, ReplyTo: command.NoReply, Keys: keys}
		want := int64(3*n)*1000 + streamPS(t, 1+cmd.EncodedSize())
		if got := r.Machine().Clock(0) - before; got != want {
			t.Errorf("n=%d: routing charged %d ps, want %d (3 ns/key + buffer write)", n, got, want)
		}
	}
}

// TestDrainChargesTwoNSPerCommand pins the decode cost: draining k unicast
// commands charges the owner 2 ns per command (plus reading the buffer).
func TestDrainChargesTwoNSPerCommand(t *testing.T) {
	const k = 7
	r := newRouter(t, 4, Config{})
	bytes := 0
	for i := 0; i < k; i++ {
		cmd := command.Command{Op: command.OpLookup, Object: 1, ReplyTo: command.NoReply, Keys: []uint64{uint64(i)}}
		bytes += 1 + cmd.EncodedSize()
		r.Inject(1, &cmd)
	}
	before := r.Machine().Clock(1)
	if got := r.Drain(1, func(command.Command) {}); got != k {
		t.Fatalf("drained %d commands, want %d", got, k)
	}
	want := int64(2*k)*1000 + streamPS(t, bytes)
	if got := r.Machine().Clock(1) - before; got != want {
		t.Errorf("drain charged %d ps, want %d (2 ns/command + buffer read)", got, want)
	}
}
