// Command eristop runs a skewed lookup workload on an ERIS engine and
// prints a live, top-like view of the system while the load balancer works:
// per-AEU operation counts, partition sizes and bounds, the busiest
// interconnect links, and the balancing cycles as they happen.
//
// Usage:
//
//	eristop [-machine amd] [-workers 16] [-keys 262144] [-dur 0.05]
//	        [-balancer oneshot] [-refresh 500ms]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"eris"
	"eris/internal/aeu"
	"eris/internal/command"
	"eris/internal/metrics"
	"eris/internal/workload"
)

func main() {
	machine := flag.String("machine", "amd", "simulated machine")
	workers := flag.Int("workers", 16, "AEU count (0 = all cores)")
	keys := flag.Uint64("keys", 1<<18, "key domain size")
	dur := flag.Float64("dur", 0.05, "workload duration in virtual seconds")
	balancer := flag.String("balancer", "oneshot", "balancing algorithm (oneshot, maN, empty = off)")
	refresh := flag.Duration("refresh", 500*time.Millisecond, "real-time refresh interval")
	flag.Parse()

	db, err := eris.Open(eris.Options{
		Machine: *machine, Workers: *workers,
		Balancer: *balancer, BalancerIntervalSec: *dur / 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	idx, err := db.CreateIndex("live", *keys)
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.LoadDense(*keys, nil); err != nil {
		log.Fatal(err)
	}
	col, err := db.CreateColumn("readings")
	if err != nil {
		log.Fatal(err)
	}
	// Clustered values (position = value) so the periodic analytical scan
	// exercises the zone maps: its narrow predicate prunes most blocks.
	if err := col.LoadUniform(int64(*keys/8), func(w int, i int64) uint64 {
		return uint64(w)<<40 | uint64(i)
	}); err != nil {
		log.Fatal(err)
	}

	// Skewed workload: all lookups hit the first quarter of the domain,
	// with an occasional multicast column scan mixed in so the colscan
	// frame line has block-verdict traffic to report.
	hot := workload.HotRange{Lo: 0, Hi: *keys / 4}
	durSec := *dur
	scanPred := eris.PredBetween(1<<8, 1<<12)
	db.Engine().SetGenerators(func(i int) aeu.Generator {
		start := -1.0
		loops := 0
		buf := make([]uint64, 512)
		return aeu.GeneratorFunc(func(a *aeu.AEU) bool {
			if start < 0 {
				start = a.ClockNS()
			}
			if (a.ClockNS()-start)/1e9 >= durSec {
				return false
			}
			workload.FillBatch(hot, a.Rng, 0, buf)
			a.Outbox().RouteLookup(1, buf, command.NoReply, 0, 0)
			if loops++; loops%16 == 0 {
				a.Outbox().RouteScan(2, scanPred, command.NoReply, 0)
			}
			return true
		})
	})
	if err := db.Start(); err != nil {
		log.Fatal(err)
	}

	e := db.Engine()
	epoch := e.Machine().StartEpoch()
	prev := db.MetricsSnapshot()
	done := make(chan error, 1)
	go func() { done <- e.WaitVirtual(durSec, 10*time.Minute) }()

	frame := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				log.Fatal(err)
			}
			db.Close()
			prev = printFrame(db, prev, epoch, frame, true)
			return
		case <-time.After(*refresh):
			frame++
			prev = printFrame(db, prev, epoch, frame, false)
		}
	}
}

// printFrame renders one top frame from the interval delta between the
// previous metrics snapshot and now, returning the new snapshot.
func printFrame(db *eris.DB, prev metrics.Snapshot, epoch interface {
	Throughput() float64
	LinkBandwidthGBs() float64
	MCBandwidthGBs() float64
}, frame int, final bool) metrics.Snapshot {
	e := db.Engine()
	snap := db.MetricsSnapshot()
	delta := snap.Delta(prev)
	header := fmt.Sprintf("--- frame %d  t=%.4fs virtual  %.1f M ops/s  links %.1f GB/s  mem %.1f GB/s ---",
		frame, e.MinClockSec(), epoch.Throughput()/1e6, epoch.LinkBandwidthGBs(), epoch.MCBandwidthGBs())
	if final {
		header = "--- final " + header[4:]
	}
	fmt.Println(header)

	entries := e.Router().OwnerEntries(1)
	domain, _ := e.Domain(1)
	var maxDelta int64 = 1
	deltas := make([]int64, e.NumAEUs())
	for i := range deltas {
		deltas[i] = delta.Counter(fmt.Sprintf("aeu.%d.ops", i))
		if deltas[i] > maxDelta {
			maxDelta = deltas[i]
		}
	}
	for i, a := range e.AEUs() {
		lo := entries[i].Low
		hi := domain
		if i+1 < len(entries) {
			hi = entries[i+1].Low
		}
		bar := strings.Repeat("#", int(deltas[i]*30/maxDelta))
		fmt.Printf("AEU %2d  node %d  range [%7d,%7d)  %8d keys  +%-8d %s\n",
			a.ID, a.Node, lo, hi, a.Partition(1).SizeTuples(), deltas[i], bar)
	}
	fmt.Printf("routing: +%d inbox appends  +%d swaps  +%d overflows  +%d outbox flushes  +%d routed keys  link +%s  mem +%s\n",
		delta.SumCounters("routing.inbox.", ".appends"),
		delta.SumCounters("routing.inbox.", ".swaps"),
		delta.SumCounters("routing.inbox.", ".overflows"),
		delta.SumCounters("routing.outbox.", ".flushes"),
		delta.SumCounters("routing.outbox.", ".routed_keys"),
		fmtBytes(delta.Counter("machine.link_bytes_total")),
		fmtBytes(delta.Counter("machine.mc_bytes_total")))
	// blocks_scanned counts blocks streamed, once per pass however many
	// scans shared it, and bytes_streamed their bytes at the blocks' width;
	// pruned and full-hit count zone-map verdicts per scan.
	passes := delta.SumCounters("aeu.", ".colscan.passes")
	if passes > 0 {
		fmt.Printf("colscan: +%d passes (+%d groups held for sharers)  +%d blocks streamed (+%s)  +%d pruned  +%d full-hit (per scan)\n",
			passes, delta.SumCounters("aeu.", ".colscan.holds"),
			delta.SumCounters("aeu.", ".colscan.blocks_scanned"),
			fmtBytes(delta.SumCounters("aeu.", ".colscan.bytes_streamed")),
			delta.SumCounters("aeu.", ".colscan.blocks_pruned"),
			delta.SumCounters("aeu.", ".colscan.blocks_full_hit"))
	}
	if cycles := e.Balancer().Cycles(); len(cycles) > 0 {
		last := cycles[len(cycles)-1]
		fmt.Printf("balancer: %d cycles, last at t=%.4fs (%s, imbalance %.2f, ~%d tuples)\n",
			len(cycles), last.TimeSec, last.Algorithm, last.Imbalance, last.MovedEst)
	}
	fmt.Println()
	return snap
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
