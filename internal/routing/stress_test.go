package routing

import (
	"sync"
	"testing"
	"time"

	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/topology"
)

// TestInboxOversizedPayloadDivertsImmediately covers the up-front capacity
// check: a payload larger than a whole buffer can never fit, so Append must
// divert it straight to the overflow queue.
func TestInboxOversizedPayloadDivertsImmediately(t *testing.T) {
	machine, _ := numasim.New(topology.SingleNode(4), numasim.Config{})
	sys := mem.NewSystem(machine)
	in := newInbox(sys.Node(0), 16, metrics.NewRegistry(), 0)

	big := make([]byte, 32)
	for i := range big {
		big[i] = 'A'
	}
	start := time.Now()
	in.Append(big)
	elapsed := time.Since(start)
	if elapsed > 100*time.Millisecond {
		t.Fatalf("oversized append took %v, should divert without spinning", elapsed)
	}
	st := in.Stats()
	if st.Oversized != 1 || st.Overflows != 1 {
		t.Fatalf("stats = %+v, want Oversized=1 Overflows=1", st)
	}
	if st.Appends != 0 {
		t.Fatalf("oversized append reported %d buffer appends, want 0 (overflow)", st.Appends)
	}
	if got := in.Swap(); string(got) != string(big) {
		t.Fatalf("swap payload = %q", got)
	}
	// A payload that exactly fits is NOT oversized.
	fits := make([]byte, 16)
	in.Append(fits)
	if st := in.Stats(); st.Overflows != 1 {
		t.Fatal("exact-fit payload diverted to overflow")
	}
	if st := in.Stats(); st.Oversized != 1 {
		t.Fatalf("oversized = %d after exact-fit append", st.Oversized)
	}
}

// checkNoDuplicates asserts the touched list holds each target at most once.
func checkNoDuplicates(t *testing.T, o *Outbox, when string) {
	t.Helper()
	seen := make(map[uint32]bool, len(o.touched))
	for _, to := range o.touched {
		if seen[to] {
			t.Fatalf("%s: target %d appears twice in touched %v", when, to, o.touched)
		}
		seen[to] = true
	}
	if len(o.touched) > o.r.numAEUs {
		t.Fatalf("%s: touched grew to %d entries for %d AEUs", when, len(o.touched), o.r.numAEUs)
	}
}

// TestOutboxTouchedNoDuplicates exercises the FlushTarget/markTouched
// interaction: an auto-flush mid-iteration used to leave the target in
// touched while clearing dirty, so the next markTouched appended a
// duplicate and touched accumulated repeats within one loop iteration.
func TestOutboxTouchedNoDuplicates(t *testing.T) {
	r := newRouter(t, 4, Config{OutBufBytes: 64})
	if err := r.RegisterRange(1, uniformRanges(4)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterSize(2, []uint32{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ob := r.Outbox(0)
	span := uint64(1 << 18)
	for round := 0; round < 3; round++ {
		// Unicast path: each batch spreads over all 4 targets; the tiny
		// 64-byte buffer forces an auto-flush roughly every append.
		for i := 0; i < 50; i++ {
			keys := []uint64{uint64(i), span + uint64(i), 2*span + uint64(i), 3*span + uint64(i)}
			ob.RouteLookup(1, keys, command.NoReply, 0, 0)
			checkNoDuplicates(t, ob, "after RouteLookup")
		}
		if ob.Stats().Flushes == 0 {
			t.Fatal("test did not trigger auto flushes; shrink OutBufBytes")
		}
		// Multicast path flushes reference buffers mid-iteration too.
		for i := 0; i < 20; i++ {
			ob.RouteScan(2, colstore.Predicate{Op: colstore.All}, command.NoReply, 0)
			checkNoDuplicates(t, ob, "after RouteScan")
		}
		ob.Flush()
		if len(ob.touched) != 0 {
			t.Fatalf("touched not drained by Flush: %v", ob.touched)
		}
		for to, q := range ob.queued {
			if q {
				t.Fatalf("target %d still queued after Flush", to)
			}
		}
		// Drain the inboxes so multicast slots recycle between rounds.
		for a := uint32(0); a < 4; a++ {
			r.Drain(a, func(command.Command) {})
		}
	}
}

// TestInboxStressConcurrent is the concurrent Append/Swap stress test: many
// writers append framed records (including oversized ones that must take
// the overflow path) while the owner swaps continuously. Run under -race it
// validates the latch-free descriptor protocol, the overflow drain, and the
// offset/writer-count invariants.
func TestInboxStressConcurrent(t *testing.T) {
	const (
		capacity  = 128
		oversized = 200 // record body larger than a whole buffer, < 256 so it fits the length byte
		writers   = 8
		per       = 400
	)
	machine, _ := numasim.New(topology.SingleNode(4), numasim.Config{})
	sys := mem.NewSystem(machine)
	in := newInbox(sys.Node(0), capacity, metrics.NewRegistry(), 0)

	var wantBytes int64
	var wantBytesMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			var sent int64
			for i := 0; i < per; i++ {
				// Record: [writer][len][len bytes of writer]. Every 50th
				// record is larger than the whole buffer and must divert.
				n := 3 + i%13
				if i%50 == 49 {
					n = oversized
				}
				rec := make([]byte, 2+n)
				rec[0] = id
				rec[1] = byte(n)
				for j := 0; j < n; j++ {
					rec[2+j] = id
				}
				in.Append(rec)
				sent += int64(len(rec))
			}
			wantBytesMu.Lock()
			wantBytes += sent
			wantBytesMu.Unlock()
		}(byte(w + 1))
	}

	counts := make(map[byte]int)
	var gotBytes int64
	parse := func(payload []byte) {
		for off := 0; off < len(payload); {
			if off+2 > len(payload) {
				t.Fatalf("truncated header at offset %d of %d", off, len(payload))
			}
			id, n := payload[off], int(payload[off+1])
			if id == 0 || int(id) > writers {
				t.Fatalf("corrupt writer id %d at offset %d", id, off)
			}
			if off+2+n > len(payload) {
				t.Fatalf("truncated record at offset %d: len %d, have %d", off, n, len(payload)-off-2)
			}
			for j := 0; j < n; j++ {
				if payload[off+2+j] != id {
					t.Fatalf("torn record of writer %d at offset %d", id, off)
				}
			}
			counts[id]++
			gotBytes += int64(2 + n)
			off += 2 + n
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
loop:
	for {
		parse(in.Swap())
		select {
		case <-done:
			break loop
		default:
		}
	}
	// Drain both buffers and the overflow queue after the writers stopped.
	parse(in.Swap())
	parse(in.Swap())

	for w := 1; w <= writers; w++ {
		if counts[byte(w)] != per {
			t.Errorf("writer %d: %d records delivered, want %d", w, counts[byte(w)], per)
		}
	}
	st := in.Stats()
	if gotBytes != wantBytes || st.Bytes != wantBytes {
		t.Errorf("bytes: sent %d, parsed %d, counted %d", wantBytes, gotBytes, st.Bytes)
	}
	if st.Oversized == 0 || st.Overflows < st.Oversized {
		t.Errorf("stats = %+v, want oversized appends counted as overflows", st)
	}
	if st.Appends+st.Overflows != int64(writers*per) {
		t.Errorf("appends %d + overflows %d != %d records", st.Appends, st.Overflows, writers*per)
	}
	// Descriptor invariants once quiescent: no writer registered, offsets
	// within capacity, and exactly one buffer active.
	active := 0
	for i := range in.desc {
		d := in.desc[i].Load()
		if w := d & descWriterMask; w != 0 {
			t.Errorf("buffer %d: %d writers registered after drain", i, w)
		}
		if off := descOffset(d); off > capacity {
			t.Errorf("buffer %d: offset %d exceeds capacity %d", i, off, capacity)
		}
		if d&descActive != 0 {
			active++
		}
	}
	if active != 1 {
		t.Errorf("%d active buffers, want 1", active)
	}
}
