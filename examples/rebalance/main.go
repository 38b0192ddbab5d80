// Rebalance: demonstrate the NUMA-aware load balancer adapting the range
// partitioning to a skewed workload (a small version of the paper's
// Figure 13 experiment). The workload hammers one quarter of the key
// domain; the balancer detects the imbalance, computes a target
// partitioning with the One-Shot algorithm, moves partitions with
// link/copy transfers, and the partition boundaries visibly shift toward
// the hot range.
package main

import (
	"fmt"
	"log"
	"time"

	"eris"
	"eris/internal/aeu"
	"eris/internal/command"
	"eris/internal/workload"
)

const domain = 1 << 18

func main() {
	db, err := eris.Open(eris.Options{
		Machine:             "amd",
		Workers:             16,
		Balancer:            "oneshot",
		BalancerIntervalSec: 0.001, // 1 ms virtual monitoring windows
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	idx, err := db.CreateIndex("accounts", domain)
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.LoadDense(domain, nil); err != nil {
		log.Fatal(err)
	}

	printPartitioning(db, "initial (uniform) partitioning")

	// Skewed lookups: every AEU draws keys only from the first quarter of
	// the domain, overloading the AEUs that own it.
	hot := workload.HotRange{Lo: 0, Hi: domain / 4}
	db.Engine().SetGenerators(func(i int) aeu.Generator {
		return &lookupGen{keys: hot, durationSec: 0.05}
	})
	if err := db.Start(); err != nil {
		log.Fatal(err)
	}
	if err := db.Engine().WaitVirtual(0.02, 2*time.Minute); err != nil {
		log.Fatal(err)
	}
	db.Close()

	printPartitioning(db, "partitioning after rebalancing under the skewed workload")

	fmt.Println("\nbalancing cycles executed:")
	for _, c := range db.Engine().Balancer().Cycles() {
		fmt.Printf("  t=%.4fs epoch %d (%s): imbalance %.2f, %d AEUs involved, ~%d tuples moved\n",
			c.TimeSec, c.Epoch, c.Algorithm, c.Imbalance, c.Involved, c.MovedEst)
	}
	st := db.Stats()
	fmt.Printf("\n%d lookups served in %.4f simulated seconds\n", st.Operations, st.VirtualSeconds)
}

// printPartitioning shows each AEU's key range and how much of the hot
// quarter it owns.
func printPartitioning(db *eris.DB, title string) {
	fmt.Println(title + ":")
	entries := db.Engine().Router().OwnerEntries(1)
	for i, e := range entries {
		hi := uint64(domain)
		if i+1 < len(entries) {
			hi = entries[i+1].Low
		}
		width := float64(hi-e.Low) / domain * 100
		marker := ""
		if e.Low < domain/4 {
			marker = "  <- in hot range"
		}
		fmt.Printf("  AEU %2d: [%7d, %7d)  %5.1f%% of domain%s\n", e.Owner, e.Low, hi, width, marker)
	}
}

// lookupGen issues batched lookups from a key generator for a virtual
// duration.
type lookupGen struct {
	keys        workload.KeyGen
	durationSec float64
	startNS     float64
	started     bool
	buf         []uint64
}

func (g *lookupGen) Generate(a *aeu.AEU) bool {
	if !g.started {
		g.started = true
		g.startNS = a.ClockNS()
		g.buf = make([]uint64, 512)
	}
	elapsed := (a.ClockNS() - g.startNS) / 1e9
	if elapsed >= g.durationSec {
		return false
	}
	workload.FillBatch(g.keys, a.Rng, elapsed, g.buf)
	a.Outbox().RouteLookup(1, g.buf, command.NoReply, 0, 0)
	return true
}
