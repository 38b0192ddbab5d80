// Routing: a close-up of the NUMA-optimized data command routing layer
// (Figure 4 of the paper). The example issues unicast lookups and
// multicast scans, then prints the per-AEU outbox/inbox counters: how many
// commands were routed, how buffers batched them into flushes, and how the
// latch-free incoming buffers behaved under concurrent writers.
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

func main() {
	db, err := eris.Open(eris.Options{Machine: "intel", Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	idx, err := db.CreateIndex("kv", 1<<16)
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.LoadDense(1<<16, nil); err != nil {
		log.Fatal(err)
	}
	col, err := db.CreateColumn("facts")
	if err != nil {
		log.Fatal(err)
	}
	if err := col.LoadUniform(10_000, nil); err != nil {
		log.Fatal(err)
	}

	// Each AEU routes uniform lookups (unicast, split by partition table)
	// for half a millisecond of virtual time; AEU 0 additionally multicasts
	// a few full scans of the column (one command in its multicast table,
	// one reference per holder).
	db.Engine().SetGenerators(func(i int) aeu.Generator {
		start := -1.0
		scans := 0
		return aeu.GeneratorFunc(func(a *aeu.AEU) bool {
			if start < 0 {
				start = a.ClockNS()
			}
			if a.ClockNS()-start > 0.5e6 {
				return false
			}
			if i == 0 && scans < 4 {
				a.Outbox().RouteScan(2, eris.PredGreater(1<<32), command.NoReply, 0)
				scans++
			}
			keys := make([]uint64, 256)
			workload.FillBatch(workload.Uniform{Domain: 1 << 16}, a.Rng, 0, keys)
			a.Outbox().RouteLookup(1, keys, command.NoReply, 0, 0)
			return true
		})
	})
	if err := db.Start(); err != nil {
		log.Fatal(err)
	}
	if err := db.Engine().WaitVirtual(0.0005, time.Minute); err != nil {
		log.Fatal(err)
	}

	// A client-side scan for comparison (the engine injects one command per
	// holder instead of using an AEU's multicast buffers).
	if _, err := col.Scan(eris.PredGreater(1 << 32)); err != nil {
		log.Fatal(err)
	}
	db.Close()

	router := db.Engine().Router()
	fmt.Println("per-AEU routing layer counters:")
	fmt.Printf("  %-4s %12s %12s %10s %8s %14s %10s %9s\n",
		"AEU", "routed cmds", "routed keys", "multicasts", "flushes", "flushed bytes", "inbox B", "swaps")
	for i := 0; i < db.Engine().NumAEUs(); i++ {
		ob := router.Outbox(uint32(i)).Stats()
		ib := router.Inbox(uint32(i)).Stats()
		fmt.Printf("  %-4d %12d %12d %10d %8d %14d %10d %9d\n",
			i, ob.RoutedCommands, ob.RoutedKeys, ob.Multicasts, ob.Flushes, ob.FlushedBytes, ib.Bytes, ib.Swaps)
	}
	fmt.Println("\nreading the table:")
	fmt.Println("  - routed keys >> routed cmds: the router groups keys per owner into batch commands")
	fmt.Println("  - flushed bytes / flushes shows the buffer batching that amortizes remote latency")
	fmt.Println("  - inbox swaps count the latch-free double-buffer flips of each AEU")
}
