package numasim

import (
	"math/rand"
	"reflect"
	"testing"

	"eris/internal/cache"
	"eris/internal/topology"
)

// machineState snapshots everything the cost model accumulates.
type machineState struct {
	clocks, links, mcs, local []int64
	cache                     cache.Stats
}

func stateOf(m *Machine) machineState {
	var st machineState
	for i := range m.cores {
		st.clocks = append(st.clocks, m.cores[i].clock.Load())
	}
	for i := range m.linkBytes {
		st.links = append(st.links, m.linkBytes[i].Load())
	}
	for i := range m.mcBytes {
		st.mcs = append(st.mcs, m.mcBytes[i].Load())
		st.local = append(st.local, m.routeHit[i].Load())
	}
	if m.cache != nil {
		st.cache = m.cache.TotalStats()
	}
	return st
}

// TestTallyCommitsWhatMachineCharges replays one random sequence of reads,
// writes and compute steps twice: directly on a Machine, and through
// tallies committed at random points on a twin machine. Homes are drawn per
// access (local, remote, and the changing homes of an interleaved store),
// and the two machines must end in the same state.
func TestTallyCommitsWhatMachineCharges(t *testing.T) {
	for _, scale := range []float64{0, 64} {
		topo := topology.Intel()
		direct := newMachine(t, topo, Config{CacheScale: scale})
		tallied := newMachine(t, topo, Config{CacheScale: scale})
		var addrs []uint64
		for i := 0; i < 64; i++ {
			a := direct.Alloc(4096)
			if b := tallied.Alloc(4096); a != b {
				t.Fatalf("twin machines allocated %#x and %#x", a, b)
			}
			addrs = append(addrs, a)
		}
		rng := rand.New(rand.NewSource(7))
		cores := []topology.CoreID{0, 1, 9, 17, 31}
		tallies := map[topology.CoreID]*Tally{}
		for _, c := range cores {
			tl := tallied.Tally(c)
			tallies[c] = &tl
		}
		for i := 0; i < 20000; i++ {
			core := cores[rng.Intn(len(cores))]
			tl := tallies[core]
			home := topology.NodeID(rng.Intn(topo.NumNodes()))
			if rng.Intn(4) == 0 {
				home = topo.NodeOfCore(core) // runs of local accesses
			}
			addr := addrs[rng.Intn(len(addrs))] + uint64(rng.Intn(4000))
			bytes := int64(1 + rng.Intn(96))
			overlap := rng.Intn(40)
			switch rng.Intn(5) {
			case 0, 1:
				direct.Read(core, home, addr, bytes, overlap)
				tl.Read(home, addr, bytes, overlap)
			case 2:
				direct.Write(core, home, addr, bytes, overlap)
				tl.Write(home, addr, bytes, overlap)
			case 3:
				ns := rng.Float64()*3 - 0.5
				direct.AdvanceNS(core, ns)
				tl.AdvanceNS(ns)
			case 4:
				tl.Commit()
			}
		}
		for _, tl := range tallies {
			tl.Commit()
		}
		if a, b := stateOf(direct), stateOf(tallied); !reflect.DeepEqual(a, b) {
			t.Fatalf("cache scale %v: tallies committed\n%+v\nmachine charged\n%+v", scale, b, a)
		}
	}
}
