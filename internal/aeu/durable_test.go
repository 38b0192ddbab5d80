package aeu

import (
	"testing"
	"time"

	"eris/internal/command"
	"eris/internal/csbtree"
	"eris/internal/durable"
	"eris/internal/prefixtree"
	"eris/internal/topology"
)

// TestDurableServePathSteadyStateAllocs is the allocation regression
// guard for the logged write path: after warm-up, serving upsert and
// delete groups with WAL appends enabled must not allocate. The log's
// segment free-list and the writer's queue/spare ping-pong keep the
// group-commit machinery allocation-free at steady state.
func TestDurableServePathSteadyStateAllocs(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1<<14)
	a0 := h.aeus[0]
	mgr, err := durable.Open(durable.Options{Dir: t.TempDir(), SyncWrites: false})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a0.SetWAL(mgr.Log(int(a0.ID)))

	src := h.aeus[1].Outbox()
	keys := make([]uint64, 64)
	kvs := make([]prefixtree.KV, 64)
	for i := range keys {
		keys[i] = uint64(i*61) % (1 << 13) // all owned by AEU 0
		kvs[i] = prefixtree.KV{Key: keys[i], Value: uint64(i)}
	}
	run := func() {
		src.RouteUpsert(testObj, kvs, command.NoReply, 0, 0)
		src.RouteBatch(command.OpDelete, testObj, keys[:8], nil, command.NoReply, 0, 0)
		src.Flush()
		h.router.Drain(a0.ID, a0.classify)
		a0.processGroups()
		if a0.wal != nil {
			a0.releaseDurableAcks()
		}
	}
	for i := 0; i < 300; i++ {
		run()
	}
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("logged serve path allocates %.1f times per cycle, want 0", avg)
	}
	if err := mgr.Flush(2 * time.Second); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := mgr.Stats(); st.Records == 0 || st.BytesLogged == 0 {
		t.Fatalf("no records logged: %+v", st)
	}
}

// Acks parked on the WAL release only once the covering fsync lands, and
// a clean loop exit flushes and releases every parked ack.
func TestSyncWritesGateAcks(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1<<10)
	a0 := h.aeus[0]
	mgr, err := durable.Open(durable.Options{Dir: t.TempDir(), SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	a0.SetWAL(mgr.Log(int(a0.ID)))

	acked := 0
	a0.SetClientResult(func(tag uint64, from uint32, kvs []prefixtree.KV, answered int, err error) {
		if err == nil {
			acked++
		}
	})
	a0.classify(command.Command{
		Op: command.OpUpsert, Object: uint32(testObj), Source: 0,
		ReplyTo: ClientReply, Tag: 1,
		KVs: []prefixtree.KV{{Key: 5, Value: 50}},
	})
	a0.processGroups()
	if acked != 0 {
		t.Fatalf("ack released before fsync (acked=%d)", acked)
	}
	if err := mgr.Flush(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	a0.releaseDurableAcks()
	if acked != 1 {
		t.Fatalf("ack not released after fsync (acked=%d)", acked)
	}
}

// moveRange runs the four-step balance dance transferring [250,499] from
// AEU 0 to AEU 1 (the same sequence TestBalanceFetchLinkSameNode pins),
// stopping with the payload still in AEU 1's mailbox when linkAt1 is
// false.
func moveRange(h *harness, linkAt1 bool) {
	h.router.UpdateRange(testObj, []csbtree.Entry{
		{Low: 0, Owner: 0}, {Low: 250, Owner: 1},
	})
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
	h.step(0) // AEU 0 shrinks bounds
	h.step(1) // AEU 1 adopts bounds, sends fetch
	h.step(0) // AEU 0 serves fetch: extraction + handoff record
	if linkAt1 {
		h.step(1) // AEU 1 links the payload + link record
	}
}

// A snapshot may be discarded by the engine (transfer overlapped the
// collection, image timeout, checkpoint write error). Link provenance
// must therefore survive any number of snapshots and retire only once a
// checkpoint carrying it has been durably *published*.
func TestLinksSurviveDiscardedSnapshot(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	mgr, err := durable.Open(durable.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for i, a := range h.aeus {
		a.SetWAL(mgr.Log(i))
	}
	for k := uint64(0); k < 500; k++ {
		h.aeus[0].Partition(testObj).Tree.Upsert(0, k, k, 1)
	}
	moveRange(h, true)

	a1 := h.aeus[1]
	if got := len(a1.Partition(testObj).links); got != 1 {
		t.Fatalf("links after transfer = %d, want 1", got)
	}

	// Two snapshots in a row model a discarded attempt plus its retry:
	// both images must carry the link.
	h.aeus[0].SnapshotDurable()
	if img := a1.SnapshotDurable(); len(img.Trees[0].Links) != 1 {
		t.Fatalf("first image Links = %d, want 1", len(img.Trees[0].Links))
	}
	h.aeus[0].SnapshotDurable()
	if img := a1.SnapshotDurable(); len(img.Trees[0].Links) != 1 {
		t.Fatalf("retry image lost the link: a discarded snapshot must not clear provenance")
	}

	// Publish a checkpoint carrying the link; only then may the entry
	// retire (the next snapshot observes the published stamp).
	img0 := h.aeus[0].SnapshotDurable()
	img1 := a1.SnapshotDurable()
	if err := mgr.WriteCheckpoint(durable.CheckpointData{
		Objects: []durable.ObjectMeta{{ID: uint32(testObj), Kind: durable.KindRange, Domain: 1000, Name: "t"}},
		AEUs:    []durable.AEUImage{img0, img1},
	}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	a1.SnapshotDurable() // observes the published stamp, retires the entry
	if got := len(a1.Partition(testObj).links); got != 0 {
		t.Fatalf("links after published checkpoint = %d, want 0 (retired)", got)
	}
	if img := a1.SnapshotDurable(); len(img.Trees[0].Links) != 0 {
		t.Fatalf("image after retirement still carries %d links", len(img.Trees[0].Links))
	}
}

// rngSum mirrors the engine checkpoint bracket: the range-transfer
// generation and in-flight sums across every AEU.
func rngSum(h *harness) (gen, inflight int64) {
	for _, a := range h.aeus {
		g, f := a.XferState(testObj)
		gen += g
		inflight += f
	}
	return gen, inflight
}

// The checkpoint bracket relies on extraction incrementing the in-flight
// count and the landed payload releasing it: a checkpoint collected while
// a range payload is afloat must observe inflight != 0 or a generation
// change and retry — otherwise a crash could lose the moved range, with
// its handoff generation pruned and its link record never written.
func TestRangeXferBracketPairs(t *testing.T) {
	h := newHarness(t, topology.SingleNode(2), 2, 1000)
	for k := uint64(0); k < 500; k++ {
		h.aeus[0].Partition(testObj).Tree.Upsert(0, k, k, 1)
	}
	if gen, inflight := rngSum(h); gen != 0 || inflight != 0 {
		t.Fatalf("pre-transfer sums gen=%d inflight=%d", gen, inflight)
	}
	moveRange(h, false) // stop with the payload in AEU 1's mailbox
	gen1, inflight := rngSum(h)
	if gen1 == 0 || inflight != 1 {
		t.Fatalf("payload afloat: gen=%d inflight=%d, want gen>0 inflight=1", gen1, inflight)
	}
	h.step(1) // AEU 1 links it
	gen2, inflight := rngSum(h)
	if inflight != 0 {
		t.Fatalf("after link: inflight=%d, want 0", inflight)
	}
	if gen2 <= gen1 {
		t.Fatalf("link did not advance the generation: %d -> %d", gen1, gen2)
	}
}
