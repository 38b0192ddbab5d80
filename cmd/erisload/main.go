// Command erisload exercises a running erisserve for the correctness
// harnesses: every mode records what the server answered over the
// eriswire protocol and checks it. Throughput is the benchmark ledger's job (benchmarks/), and
// eristop and erisbench drive an in-process engine.
//
// Usage:
//
//	erisload -remote 127.0.0.1:7807 -check [-conns 4] [-workers 8] [-dur 1]
//	erisload -remote 127.0.0.1:7807 -ackfile acks.txt [-dur 2]
//	erisload -remote 127.0.0.1:7807 -ackfile acks.txt -verify
//
// -check runs a recorded mixed workload and checks offline that its
// history is linearizable.
//
// The -ackfile pair is the kill -9 durability scenario: the first form
// runs a striped upsert workload against a -datadir erisserve and records
// every acknowledged write (a dropped connection — the server being
// killed — ends the run gracefully); after restarting the server on the
// same data directory, the -verify form checks every recorded write
// survived recovery.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"eris/internal/client"
	"eris/internal/histcheck"
	"eris/internal/history"
	"eris/internal/prefixtree"
	"eris/internal/wire"
	"eris/internal/workload"
)

func main() {
	remote := flag.String("remote", "", "address of the erisserve to drive")
	conns := flag.Int("conns", 4, "pooled connections")
	workers := flag.Int("workers", 0, "load goroutines (0 = two per connection)")
	dur := flag.Float64("dur", 1, "workload seconds")
	check := flag.Bool("check", false, "record a mixed workload and verify the history is linearizable after the run; violations dump to results/")
	checkRing := flag.Int("checkring", 1<<16, "with -check: per-worker event ring capacity (on overflow only the history before the first dropped event is checked)")
	ackFile := flag.String("ackfile", "", "run a striped upsert workload recording every acknowledged write to this file; a dropped connection (server killed) ends the worker without failing the run")
	verify := flag.Bool("verify", false, "with -ackfile: look up every recorded acked write and exit non-zero if any is missing or older than its acked value")
	flag.Parse()

	if *workers <= 0 {
		*workers = 2 * *conns
	}
	switch {
	case *remote == "":
		log.Fatal("erisload needs -remote: it drives a running erisserve")
	case *verify && *ackFile == "":
		log.Fatal("-verify requires -ackfile")
	case *verify:
		runVerify(*remote, *conns, *ackFile)
	case *ackFile != "":
		runAcked(*remote, *conns, *workers, *dur, *ackFile)
	case *check:
		runCheck(*remote, *conns, *workers, *dur, *checkRing)
	default:
		log.Fatal("erisload needs a mode: -check or -ackfile")
	}
}

// dialIndex opens a pool of conns connections to addr and returns it with
// the first index object the server exports.
func dialIndex(addr string, conns int) (*client.Pool, wire.ObjectInfo) {
	pool, err := client.NewPool(addr, conns, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range pool.Get().Objects() {
		if o.Kind == wire.KindIndex {
			return pool, o
		}
	}
	pool.Close()
	log.Fatalf("server at %s exports no index object", addr)
	return nil, wire.ObjectInfo{}
}

// runAcked drives the durability workload for the kill -9 scenario: each
// worker upserts only its own key stripe (key ≡ worker mod workers) with
// per-worker strictly increasing values, so the latest acknowledged value
// of every key is well defined without cross-worker coordination. Acked
// writes are recorded and written to ackFile at the end; a connection
// error — the server being killed is the point of the scenario — stops
// that worker but keeps everything it had acked. A later -verify run
// replays the file against the restarted server.
func runAcked(addr string, conns, workers int, durSec float64, ackFile string) {
	pool, obj := dialIndex(addr, conns)
	defer pool.Close()
	if obj.Domain < uint64(2*workers) {
		log.Fatalf("domain %d too small for %d striped workers", obj.Domain, workers)
	}

	const batch = 16
	acked := make([]map[uint64]uint64, workers)
	var dropped atomic.Uint64
	deadline := time.Now().Add(time.Duration(durSec * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = make(map[uint64]uint64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			c := pool.Get()
			kvs := make([]prefixtree.KV, batch)
			seq := uint64(0)
			for time.Now().Before(deadline) {
				for i := range kvs {
					k := rng.Uint64() % obj.Domain
					k -= k % uint64(workers)
					k += uint64(w)
					if k >= obj.Domain {
						k -= uint64(workers)
					}
					seq++
					kvs[i] = prefixtree.KV{Key: k, Value: seq}
				}
				if err := c.Upsert(obj.ID, kvs); err != nil {
					// No ack: the write may or may not have landed, either is
					// fine after recovery. Keep what WAS acked and stop.
					dropped.Add(1)
					return
				}
				for _, kv := range kvs {
					if kv.Value > acked[w][kv.Key] {
						acked[w][kv.Key] = kv.Value
					}
				}
			}
		}(w)
	}
	wg.Wait()

	f, err := os.Create(ackFile)
	if err != nil {
		log.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	total := 0
	for _, m := range acked {
		for k, v := range m {
			fmt.Fprintf(bw, "%d %d\n", k, v)
			total++
		}
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("acked workload on %q: %d keys recorded to %s (%d workers, %d connections dropped)\n",
		obj.Name, total, ackFile, workers, dropped.Load())
}

// runVerify checks an ackfile against a (typically restarted) server:
// every recorded key must be present with a value at least as new as the
// one acked — a later unacked write by the same worker may legitimately
// have survived, an older or missing value means a lost acknowledged
// write. Exits non-zero on the first summary of losses.
func runVerify(addr string, conns int, ackFile string) {
	want := make(map[uint64]uint64)
	f, err := os.Open(ackFile)
	if err != nil {
		log.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var k, v uint64
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &k, &v); err != nil {
			log.Fatalf("bad ackfile line %q: %v", sc.Text(), err)
		}
		if v > want[k] {
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	f.Close()

	pool, obj := dialIndex(addr, conns)
	defer pool.Close()

	keys := make([]uint64, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	missing, stale := 0, 0
	for off := 0; off < len(keys); off += 64 {
		end := off + 64
		if end > len(keys) {
			end = len(keys)
		}
		kvs, err := pool.Get().Lookup(obj.ID, keys[off:end])
		if err != nil {
			log.Fatalf("verify lookup: %v", err)
		}
		got := make(map[uint64]uint64, len(kvs))
		for _, kv := range kvs {
			got[kv.Key] = kv.Value
		}
		for _, k := range keys[off:end] {
			v, ok := got[k]
			switch {
			case !ok:
				missing++
			case v < want[k]:
				stale++
			}
		}
	}
	if missing > 0 || stale > 0 {
		log.Fatalf("verify %q: LOST ACKED WRITES — %d of %d keys missing, %d older than acked", obj.Name, missing, len(want), stale)
	}
	fmt.Printf("verify %q: all %d acked writes survived\n", obj.Name, len(want))
}

// runCheck drives a read-mostly mixed workload over the first index — per
// batch 2/8 upserts, 1/8 deletes, lookups otherwise, so the checker has
// writes to order against reads — and records every operation into a
// per-worker history log (plain ring-buffer appends; the verification
// itself runs offline after the workload quiesced). The history is then
// checked for linearizability against the sequential map model.
func runCheck(addr string, conns, workers int, durSec float64, checkRing int) {
	pool, obj := dialIndex(addr, conns)
	defer pool.Close()
	keygen := workload.Uniform{Domain: obj.Domain}
	rec := history.New(workers, checkRing)

	const batch = 64
	var ops atomic.Uint64
	deadline := time.Now().Add(time.Duration(durSec * float64(time.Second)))
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			keys := make([]uint64, batch)
			kvs := make([]prefixtree.KV, batch)
			// The worker binds one connection and records through it; the
			// log is single-goroutine, like the connection.
			wc := history.NewWireClient(pool.Get(), obj.ID, rec.Client(w))
			ctx := context.Background()
			for time.Now().Before(deadline) {
				var err error
				switch rng.Intn(8) {
				case 0, 1:
					for i := range kvs {
						kvs[i] = prefixtree.KV{Key: keygen.Key(rng, 0), Value: uint64(rng.Int63())}
					}
					err = wc.Upsert(ctx, kvs)
				case 2:
					for i := range keys {
						keys[i] = keygen.Key(rng, 0)
					}
					err = wc.Delete(ctx, keys[:8])
				default:
					for i := range keys {
						keys[i] = keygen.Key(rng, 0)
					}
					_, err = wc.Lookup(ctx, keys)
				}
				if err != nil {
					errc <- err
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		log.Fatalf("check workload: %v", err)
	default:
	}
	fmt.Printf("check workload on %q (domain %d): %d batches in %.2fs, %d conns, %d workers\n",
		obj.Name, obj.Domain, ops.Load(), durSec, pool.Size(), workers)
	verifyHistory(rec)
}

// verifyHistory runs the offline linearizability check over a recorded
// workload and reports (or dumps and dies on) the outcome.
func verifyHistory(rec *history.Recorder) {
	// The server's pre-existing contents are unknown: the first linearized
	// read of each key pins its start state.
	opts := histcheck.Options{DefaultUnknown: true}
	start := time.Now()
	res := histcheck.Check(rec, opts)
	fmt.Printf("history check: %d events (%d dropped), %d point ops, %d scans, %d column scans verified in %.2fs\n",
		rec.Len(), res.Dropped, res.Ops, res.Scans, res.ColScans, time.Since(start).Seconds())
	if res.Dropped > 0 {
		fmt.Printf("history check: %d events overflowed the ring; only the history before the first overflow (%.3fs into the recording) was checked — raise -checkring or shorten -dur\n",
			res.Dropped, float64(res.CutAt)/1e9)
	}
	if len(res.Violations) > 0 {
		path, werr := histcheck.WriteViolations("results", "erisload", res, opts)
		if werr != nil {
			log.Printf("write violation dump: %v", werr)
		}
		log.Fatalf("history check: %d linearizability violations (dump: %s); first: %s",
			len(res.Violations), path, res.Violations[0].Reason)
	}
	fmt.Println("history check: linearizable — every response is explainable by a sequential execution")
}
