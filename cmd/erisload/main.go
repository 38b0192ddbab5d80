// Command erisload drives a configurable lookup/upsert/scan workload
// against an ERIS engine through the public API and reports throughput and
// interconnect counters — a smoke/load-test tool for the storage engine.
//
// With -remote addr it instead drives the workload over the eriswire
// protocol against a running erisserve: a connection pool of -conns
// pipelined connections shared by -workers goroutines issuing batches of
// 64 for -dur REAL seconds (in local mode -dur is virtual seconds).
//
// Usage:
//
//	erisload [-machine intel] [-workers N] [-keys 1048576] [-dur 0.002]
//	         [-mix lookup|upsert|scan] [-balancer oneshot|maN] [-hot 0.25]
//	erisload -remote 127.0.0.1:7807 [-conns 4] [-workers 16] [-dur 1]
//	         [-mix lookup|upsert|scan] [-hot 0.25] [-overload] [-timeout 5ms]
//	erisload -remote 127.0.0.1:7807 -ackfile acks.txt [-dur 2]
//	erisload -remote 127.0.0.1:7807 -ackfile acks.txt -verify
//
// The -ackfile pair is the kill -9 durability scenario: the first form
// runs a striped upsert workload against a -datadir erisserve and records
// every acknowledged write (a dropped connection — the server being
// killed — ends the run gracefully); after restarting the server on the
// same data directory, the -verify form checks every recorded write
// survived recovery.
//
// The -overload scenario stamps every request with a short deadline and
// disables retries so admission-control rejections surface; the report
// then shows goodput versus shed rate instead of failing on the first
// wire.ErrOverloaded.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"eris"
	"eris/internal/aeu"
	"eris/internal/client"
	"eris/internal/core"
	"eris/internal/histcheck"
	"eris/internal/history"
	"eris/internal/hwcounter"
	"eris/internal/metrics"
	"eris/internal/prefixtree"
	"eris/internal/wire"
	"eris/internal/workload"
)

func main() {
	machine := flag.String("machine", "intel", "simulated machine: intel, amd, sgi, single")
	workers := flag.Int("workers", 0, "AEU count; with -remote, load goroutines (0 = default)")
	keys := flag.Uint64("keys", 1<<20, "key domain size")
	dur := flag.Float64("dur", 0.002, "measured virtual seconds (real seconds with -remote)")
	mix := flag.String("mix", "lookup", "workload: lookup, upsert, or scan; with -remote also mixed (read-mostly lookup/upsert/delete)")
	balancer := flag.String("balancer", "", "load balancing algorithm (oneshot, maN; empty = off)")
	hot := flag.Float64("hot", 0, "restrict lookups to the first fraction of the domain (0 = uniform)")
	metricsAddr := flag.String("metricsaddr", "", "serve live engine metrics as JSON on this address (e.g. 127.0.0.1:0)")
	remote := flag.String("remote", "", "drive a running erisserve at this address instead of an in-process engine")
	conns := flag.Int("conns", 4, "pooled connections with -remote")
	overload := flag.Bool("overload", false, "with -remote: overload scenario — per-request deadlines, no retries, shed requests tolerated; reports goodput vs shed rate")
	timeout := flag.Duration("timeout", 0, "with -remote: per-request client timeout (0 = none; 5ms under -overload)")
	check := flag.Bool("check", false, "with -remote: record every operation and verify the history is linearizable after the run; violations dump to results/")
	checkRing := flag.Int("checkring", 1<<16, "with -check: per-worker event ring capacity (on overflow only the history before the first dropped event is checked)")
	ackFile := flag.String("ackfile", "", "with -remote: run a striped upsert workload recording every acknowledged write to this file; a dropped connection (server killed) ends the worker without failing the run")
	verify := flag.Bool("verify", false, "with -remote -ackfile: look up every recorded acked write and exit non-zero if any is missing or older than its acked value")
	flag.Parse()

	if *verify {
		if *remote == "" || *ackFile == "" {
			log.Fatal("-verify requires -remote and -ackfile")
		}
		runVerify(*remote, *conns, *ackFile)
		return
	}
	if *ackFile != "" {
		if *remote == "" {
			log.Fatal("-ackfile requires -remote")
		}
		runAcked(*remote, *conns, *workers, *dur, *ackFile)
		return
	}

	if *remote != "" {
		runRemote(*remote, *conns, *workers, *dur, *mix, *hot, *overload, *timeout, *check, *checkRing)
		return
	}
	if *check {
		log.Fatal("-check requires -remote: history recording wraps the wire client")
	}

	db, err := eris.Open(eris.Options{
		Machine: *machine, Workers: *workers,
		Balancer: *balancer, BalancerIntervalSec: *dur / 10,
		MetricsAddr: *metricsAddr,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const obj = 1
	var keygen workload.KeyGen = workload.Uniform{Domain: *keys}
	if *hot > 0 && *hot < 1 {
		keygen = workload.HotRange{Lo: 0, Hi: uint64(float64(*keys) * *hot)}
	}

	switch *mix {
	case "lookup", "upsert":
		idx, err := db.CreateIndex("bench", *keys)
		if err != nil {
			log.Fatal(err)
		}
		if *mix == "lookup" {
			if err := idx.LoadDense(*keys, nil); err != nil {
				log.Fatal(err)
			}
		}
		db.Engine().SetGenerators(func(i int) aeu.Generator {
			if *mix == "lookup" {
				return &core.LookupGenerator{Object: obj, Keys: keygen, Batch: 64, DurationSec: *dur * 3}
			}
			return &core.UpsertGenerator{Object: obj, Keys: keygen, Batch: 64, DurationSec: *dur * 3}
		})
	case "scan":
		col, err := db.CreateColumn("bench")
		if err != nil {
			log.Fatal(err)
		}
		per := int64(*keys) / int64(db.Engine().NumAEUs())
		if err := col.LoadUniform(per, nil); err != nil {
			log.Fatal(err)
		}
		db.Engine().SetGenerators(func(i int) aeu.Generator {
			return &core.SelfScanGenerator{Object: obj, Pred: eris.PredAll(), DurationSec: *dur * 3}
		})
	default:
		log.Fatalf("unknown mix %q", *mix)
	}

	if err := db.Start(); err != nil {
		log.Fatal(err)
	}
	if addr := db.MetricsListenAddr(); addr != "" {
		fmt.Printf("metrics: http://%s/metrics\n", addr)
	}
	session := hwcounter.Start(db.Engine().Machine())
	before := db.MetricsSnapshot()
	start := time.Now()
	if err := db.Engine().WaitVirtual(*dur, 30*time.Minute); err != nil {
		log.Fatal(err)
	}
	report := session.Report()
	delta := db.MetricsSnapshot().Delta(before)
	db.Close()

	fmt.Printf("machine %s, %d AEUs, %s workload over %d keys\n",
		*machine, db.Engine().NumAEUs(), *mix, *keys)
	fmt.Print(report)
	fmt.Printf("routing: %d inbox appends, %d swaps, %d overflows, %d outbox flushes, %d routed keys\n",
		delta.SumCounters("routing.inbox.", ".appends"),
		delta.SumCounters("routing.inbox.", ".swaps"),
		delta.SumCounters("routing.inbox.", ".overflows"),
		delta.SumCounters("routing.outbox.", ".flushes"),
		delta.SumCounters("routing.outbox.", ".routed_keys"))
	if cycles := db.Engine().Balancer().Cycles(); len(cycles) > 0 {
		fmt.Printf("balancing cycles: %d\n", len(cycles))
	}
	fmt.Printf("(real time: %.1fs)\n", time.Since(start).Seconds())
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
	if workers <= 0 {
		workers = 2 * conns
	}
	pool, err := client.NewPool(addr, conns, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	var obj wire.ObjectInfo
	found := false
	for _, o := range pool.Get().Objects() {
		if o.Kind == wire.KindIndex {
			obj, found = o, true
			break
		}
	}
	if !found {
		log.Fatalf("server at %s exports no index object", addr)
	}
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

	pool, err := client.NewPool(addr, conns, client.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	var obj wire.ObjectInfo
	found := false
	for _, o := range pool.Get().Objects() {
		if o.Kind == wire.KindIndex {
			obj, found = o, true
			break
		}
	}
	if !found {
		log.Fatalf("server at %s exports no index object", addr)
	}

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

// runRemote drives the workload over eriswire against a running erisserve.
// The key domain comes from the server's handshake object table, so the
// client needs no -keys flag; lookup/upsert target the first index object,
// scan targets the first column (or falls back to index range scans).
//
// With overload set, every request carries a short deadline and retries
// are disabled, so server rejections (wire.ErrOverloaded) and expiries
// surface directly; they are counted as shed work instead of aborting the
// run, and the report shows goodput versus shed rate.
//
// With check set, every operation is recorded into a per-worker history log
// (plain ring-buffer appends — the verification itself runs offline after
// the workload quiesced) and the history is checked for linearizability
// against the sequential map model. The server's pre-existing contents are
// unknown to the client, so keys start in the "unknown" state and the first
// linearized read pins them. Violations dump a minimized reproducer to
// results/ and the run exits non-zero.
func runRemote(addr string, conns, workers int, durSec float64, mix string, hot float64, overload bool, timeout time.Duration, check bool, checkRing int) {
	if workers <= 0 {
		workers = 2 * conns
	}
	reg := metrics.NewRegistry()
	opts := client.Options{Metrics: reg, DefaultTimeout: timeout}
	if overload {
		if opts.DefaultTimeout == 0 {
			opts.DefaultTimeout = 5 * time.Millisecond
		}
		opts.OverloadRetries = -1 // count every rejection instead of hiding it behind retries
	}
	pool, err := client.NewPool(addr, conns, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	wantKind := wire.KindIndex
	if mix == "scan" {
		wantKind = wire.KindColumn
	}
	var obj wire.ObjectInfo
	found := false
	for _, o := range pool.Get().Objects() {
		if o.Kind == wantKind {
			obj, found = o, true
			break
		}
	}
	if !found && mix == "scan" {
		// No column on the server: scan the first index by range instead.
		for _, o := range pool.Get().Objects() {
			if o.Kind == wire.KindIndex {
				obj, found = o, true
				break
			}
		}
	}
	if !found {
		log.Fatalf("server at %s exports no suitable object for mix %q", addr, mix)
	}

	var keygen workload.KeyGen = workload.Uniform{Domain: obj.Domain}
	if hot > 0 && hot < 1 {
		keygen = workload.HotRange{Lo: 0, Hi: uint64(float64(obj.Domain) * hot)}
	}

	var rec *history.Recorder
	if check {
		rec = history.New(workers, checkRing)
	}

	const batch = 64
	var ops, tuples, shed atomic.Uint64
	deadline := time.Now().Add(time.Duration(durSec * float64(time.Second)))
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			keyBuf := make([]uint64, batch)
			kvBuf := make([]prefixtree.KV, batch)
			// With check, the worker binds one connection and records through
			// it; the log is single-goroutine, like the connection.
			var wc *history.WireClient
			if check {
				wc = history.NewWireClient(pool.Get(), obj.ID, rec.Client(w))
			}
			ctx := context.Background()
			for time.Now().Before(deadline) {
				c := pool.Get()
				var err error
				switch mix {
				case "lookup":
					for i := range keyBuf {
						keyBuf[i] = keygen.Key(rng, 0)
					}
					var kvs []prefixtree.KV
					if wc != nil {
						kvs, err = wc.Lookup(ctx, keyBuf)
					} else {
						kvs, err = c.Lookup(obj.ID, keyBuf)
					}
					tuples.Add(uint64(len(kvs)))
				case "upsert":
					for i := range kvBuf {
						kvBuf[i] = prefixtree.KV{Key: keygen.Key(rng, 0), Value: uint64(rng.Int63())}
					}
					if wc != nil {
						err = wc.Upsert(ctx, kvBuf)
					} else {
						err = c.Upsert(obj.ID, kvBuf)
					}
					tuples.Add(batch)
				case "mixed":
					// Read-mostly mix over one object so the checker has
					// writes to order against reads: 2/8 upsert, 1/8 delete.
					switch rng.Intn(8) {
					case 0, 1:
						for i := range kvBuf {
							kvBuf[i] = prefixtree.KV{Key: keygen.Key(rng, 0), Value: uint64(rng.Int63())}
						}
						if wc != nil {
							err = wc.Upsert(ctx, kvBuf)
						} else {
							err = c.Upsert(obj.ID, kvBuf)
						}
						tuples.Add(batch)
					case 2:
						for i := range keyBuf {
							keyBuf[i] = keygen.Key(rng, 0)
						}
						if wc != nil {
							err = wc.Delete(ctx, keyBuf[:8])
						} else {
							err = c.Delete(obj.ID, keyBuf[:8])
						}
						tuples.Add(8)
					default:
						for i := range keyBuf {
							keyBuf[i] = keygen.Key(rng, 0)
						}
						var kvs []prefixtree.KV
						if wc != nil {
							kvs, err = wc.Lookup(ctx, keyBuf)
						} else {
							kvs, err = c.Lookup(obj.ID, keyBuf)
						}
						tuples.Add(uint64(len(kvs)))
					}
				case "scan":
					var agg client.ScanAggregate
					if obj.Kind == wire.KindColumn {
						if wc != nil {
							agg, err = wc.ColScan(ctx, eris.PredAll())
						} else {
							agg, err = c.ColScan(obj.ID, eris.PredAll())
						}
					} else {
						lo := keygen.Key(rng, 0)
						if wc != nil {
							agg, err = wc.ScanRange(ctx, lo, lo+999, eris.PredAll())
						} else {
							agg, err = c.ScanRange(obj.ID, lo, lo+999, eris.PredAll())
						}
					}
					tuples.Add(agg.Matched)
				default:
					log.Fatalf("unknown mix %q", mix)
				}
				if err != nil {
					if overload && (errors.Is(err, wire.ErrOverloaded) || errors.Is(err, wire.ErrDeadlineExceeded)) {
						shed.Add(1)
						continue
					}
					errc <- err
					return
				}
				ops.Add(1)
			}
		}(w, int64(w)+1)
	}
	wg.Wait()
	select {
	case err := <-errc:
		log.Fatalf("remote workload: %v", err)
	default:
	}

	snap := reg.Snapshot()
	n := ops.Load()
	fmt.Printf("remote %s: %s workload on object %q (domain %d), %d conns, %d workers\n",
		addr, mix, obj.Name, obj.Domain, pool.Size(), workers)
	fmt.Printf("%d batches (%d tuples) in %.2fs: %.0f batch/s, %.0f tuple/s\n",
		n, tuples.Load(), durSec, float64(n)/durSec, float64(tuples.Load())/durSec)
	fmt.Printf("client: %d requests, %d errors, %d connection errors\n",
		snap.Counter("client.requests"), snap.Counter("client.errors"),
		snap.Counter("client.conn_errors"))
	if overload {
		good, rejected := n, shed.Load()
		total := good + rejected
		pct := func(x uint64) float64 {
			if total == 0 {
				return 0
			}
			return 100 * float64(x) / float64(total)
		}
		fmt.Printf("overload: %d/%d batches served (%.1f%% goodput), %d shed or expired (%.1f%%), timeout %s\n",
			good, total, pct(good), rejected, pct(rejected), opts.DefaultTimeout)
		fmt.Printf("overload client counters: %d overloaded replies, %d timeouts, %d retries\n",
			snap.Counter("client.overloaded"), snap.Counter("client.timeouts"),
			snap.Counter("client.retries"))
	}

	if check {
		verifyHistory(rec, mix, obj)
	}
}

// verifyHistory runs the offline linearizability check over a recorded
// remote workload and reports (or dumps and dies on) the outcome.
func verifyHistory(rec *history.Recorder, mix string, obj wire.ObjectInfo) {
	opts := histcheck.Options{
		// The server's pre-existing contents are unknown: the first
		// linearized read of each key pins its start state.
		DefaultUnknown: true,
		// A scan-only run performs no column writes, so every column scan
		// with the same predicate must observe the identical aggregate no
		// matter how blocks migrate meanwhile.
		ColumnStatic: mix == "scan" && obj.Kind == wire.KindColumn,
	}
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
