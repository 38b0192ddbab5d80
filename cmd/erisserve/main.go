// Command erisserve runs an ERIS engine and serves it over the eriswire
// TCP protocol. It creates a range index "kv" (bulk-loaded dense unless
// -preload 0) and, with -coltuples > 0, a column "values", then accepts
// connections until SIGINT/SIGTERM, drains them gracefully and prints the
// serving counters.
//
// Usage:
//
//	erisserve [-addr 127.0.0.1:0] [-machine intel] [-workers N]
//	          [-keys 1048576] [-preload -1] [-coltuples 0]
//	          [-balancer oneshot|maN] [-inflight 1024] [-deadline 0]
//	          [-datadir DIR] [-syncwrites] [-checkpoint 2s]
//
// With -datadir the engine write-ahead-logs every applied write and cuts
// periodic checkpoints into DIR; restarting erisserve on the same DIR
// recovers the objects and contents that were durable at the kill point
// (everything acked when -syncwrites is set), skipping the create/preload
// phase.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eris"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "TCP listen address (port 0 = ephemeral)")
	machine := flag.String("machine", "intel", "simulated machine: intel, amd, sgi, single")
	workers := flag.Int("workers", 0, "AEU count (0 = all cores)")
	keys := flag.Uint64("keys", 1<<20, "key domain of the \"kv\" index")
	preload := flag.Int64("preload", -1, "dense keys to bulk-load into \"kv\" (-1 = whole domain, 0 = none)")
	colTuples := flag.Int64("coltuples", 0, "tuples per worker of the \"values\" column (0 = no column)")
	balancer := flag.String("balancer", "", "load balancing algorithm (oneshot, maN; empty = off)")
	inFlight := flag.Int("inflight", 0, "global admission budget across all connections (0 = default)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline for clients that send none (0 = unbounded)")
	metricsAddr := flag.String("metricsaddr", "", "serve live engine metrics as JSON on this address")
	faultSeed := flag.Int64("faultseed", 0, "enable deterministic fault injection with this seed")
	dataDir := flag.String("datadir", "", "durable data directory for WAL + checkpoints (empty = in-memory only)")
	syncWrites := flag.Bool("syncwrites", false, "with -datadir: ack writes only after their log records are fsynced")
	checkpoint := flag.Duration("checkpoint", 2*time.Second, "with -datadir: periodic checkpoint interval (0 = checkpoints only at start and close)")
	flag.Parse()

	db, err := eris.Open(eris.Options{
		Machine: *machine, Workers: *workers, Balancer: *balancer,
		ListenAddr: *addr, GlobalInFlight: *inFlight, DefaultDeadline: *deadline,
		MetricsAddr: *metricsAddr, FaultSeed: *faultSeed,
		DataDir: *dataDir, SyncWrites: *syncWrites, CheckpointEvery: *checkpoint,
	})
	if err != nil {
		log.Fatal(err)
	}
	if db.Recovered() {
		// The data directory held a previous instance's state: every object
		// (and its durable contents) is already loaded, so the create and
		// preload phase is skipped entirely.
		if _, err := db.Index("kv"); err != nil {
			log.Fatalf("recovered directory %s has no \"kv\" index: %v", *dataDir, err)
		}
		st := db.Durable().Stats()
		fmt.Printf("recovered from %s: replayed %d log records (%d bytes) in %.3fs\n",
			*dataDir, st.ReplayRecords, st.ReplayBytes, float64(st.RecoveryNS)/1e9)
	} else {
		idx, err := db.CreateIndex("kv", *keys)
		if err != nil {
			log.Fatal(err)
		}
		n := *preload
		if n < 0 || uint64(n) > *keys {
			n = int64(*keys)
		}
		if n > 0 {
			if err := idx.LoadDense(uint64(n), nil); err != nil {
				log.Fatal(err)
			}
		}
		if *colTuples > 0 {
			col, err := db.CreateColumn("values")
			if err != nil {
				log.Fatal(err)
			}
			if err := col.LoadUniform(*colTuples, nil); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := db.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening on %s\n", db.ServeAddr())
	if ma := db.MetricsListenAddr(); ma != "" {
		fmt.Printf("metrics: http://%s/metrics\n", ma)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("draining...")
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	snap := db.MetricsSnapshot()
	fmt.Printf("served %d connections, %d requests (%d responses, %d errors, %d bad frames)\n",
		snap.Counter("server.accepted"), snap.Counter("server.requests"),
		snap.Counter("server.responses"), snap.Counter("server.errors"),
		snap.Counter("server.bad_frames"))
	fmt.Printf("admission: %d admitted, %d shed, %d expired\n",
		snap.Counter("server.admitted"), snap.Counter("server.shed"),
		snap.Counter("server.expired"))
	if *dataDir != "" {
		st := db.Durable().Stats()
		fmt.Printf("durability: %d records logged (%d bytes), %d fsyncs, %d checkpoints\n",
			st.Records, st.BytesLogged, st.Fsyncs, st.Checkpoints)
	}
}
