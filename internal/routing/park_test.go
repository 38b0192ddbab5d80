package routing

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eris/internal/mem"
	"eris/internal/metrics"
	"eris/internal/numasim"
	"eris/internal/topology"
)

// TestParkLosesNoWakeup is the strict form of the no-lost-wake-up argument
// in Inbox.Park's comment. Producers append in rounds — one payload each,
// through the descriptor CAS or, for payloads larger than a buffer, through
// the overflow queue — and start the next round only when the owner has
// consumed the whole round, so the last append of every round races the
// owner going to sleep with nobody left to wake it by accident. The owner
// parks with a timeout far longer than the test: a wake-up the protocol
// loses is a ParkTimedOut, not a delay the safety net hides. Run with
// -race -cpu 2 (ci.yml does).
func TestParkLosesNoWakeup(t *testing.T) {
	const (
		producers   = 4
		perProducer = 3000 // rounds
		bufBytes    = 64
		small       = 8                // fits a buffer: descriptor path
		big         = 2 * 64           // never fits: overflow path
		lostWakeup  = 20 * time.Second // no park of a healthy run lasts this long
	)
	machine, _ := numasim.New(topology.SingleNode(1), numasim.Config{})
	in := newInbox(mem.NewSystem(machine).Node(0), bufBytes, metrics.NewRegistry(), 0)

	var consumed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			for i := 0; i < perProducer; i++ {
				size := small
				if rng.Intn(8) == 0 {
					size = big
				}
				// Every payload starts with its own length so the owner can
				// count payloads in a drained byte stream.
				msg := make([]byte, size)
				binary.LittleEndian.PutUint32(msg, uint32(size))
				for y := rng.Intn(8); y > 0; y-- {
					runtime.Gosched()
				}
				in.Append(msg)
				for consumed.Load() < int64((i+1)*producers) {
					runtime.Gosched()
				}
			}
		}(p)
	}

	got, parks, woken := 0, 0, 0
	for {
		payload := in.Swap()
		for len(payload) > 0 {
			n := int(binary.LittleEndian.Uint32(payload))
			if n != small && n != big || n > len(payload) {
				t.Fatalf("drained stream corrupt at payload %d: length prefix %d", got, n)
			}
			payload = payload[n:]
			got++
			consumed.Add(1)
		}
		if got == producers*perProducer {
			break
		}
		switch in.Park(lostWakeup, in.Pending) {
		case ParkWoken:
			woken++
			parks++
		case ParkAborted:
			parks++
		case ParkTimedOut:
			t.Fatalf("lost wake-up: owner slept %v with %d of %d payloads consumed", lostWakeup, got, producers*perProducer)
		}
	}
	wg.Wait()
	if woken == 0 {
		t.Fatalf("owner never blocked (%d parks, all aborted by the re-check): the test did not exercise Wake", parks)
	}
	if st := in.Stats(); st.Overflows == 0 || st.Appends == 0 {
		t.Fatalf("stats %+v: want both the descriptor and the overflow path exercised", st)
	}
	t.Logf("%d payloads, %d parks, %d ended by Wake", got, parks, woken)
}

// TestWakeWithoutParkedOwnerIsFree pins the hot-path contract of Wake: with
// no parked owner it leaves no token behind (the next park must block, not
// return at once) and allocates nothing.
func TestWakeWithoutParkedOwnerIsFree(t *testing.T) {
	machine, _ := numasim.New(topology.SingleNode(1), numasim.Config{})
	in := newInbox(mem.NewSystem(machine).Node(0), 64, metrics.NewRegistry(), 0)
	if avg := testing.AllocsPerRun(1000, in.Wake); avg != 0 {
		t.Fatalf("Wake allocates %.1f times per call, want 0", avg)
	}
	if got := in.Park(time.Millisecond, in.Pending); got != ParkTimedOut {
		t.Fatalf("park after un-parked Wakes = %v, want ParkTimedOut (no stale token)", got)
	}
	in.Append([]byte{1})
	if got := in.Park(time.Minute, in.Pending); got != ParkAborted {
		t.Fatalf("park with a pending append = %v, want ParkAborted", got)
	}
}
