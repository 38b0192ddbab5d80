package eris

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"eris/internal/client"
	"eris/internal/metrics"
)

func TestOpenDefaults(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Stats().Workers; got != 40 {
		t.Fatalf("default machine workers = %d, want 40 (intel)", got)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(Options{Machine: "cray"}); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := Open(Options{Balancer: "bogus"}); err == nil {
		t.Error("unknown balancer accepted")
	}
	if _, err := Open(Options{Balancer: "ma0"}); err == nil {
		t.Error("ma0 accepted")
	}
}

func TestIndexLifecycle(t *testing.T) {
	db, err := Open(Options{Machine: "single", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("orders", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("orders", 1<<16); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := idx.LoadDense(1000, func(k uint64) uint64 { return k * 10 }); err != nil {
		t.Fatal(err)
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}

	kvs, err := idx.Lookup([]uint64{7, 999, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 || kvs[0] != (KV{Key: 7, Value: 70}) {
		t.Fatalf("lookup = %+v", kvs)
	}

	if err := idx.Upsert([]KV{{Key: 5000, Value: 1}}); err != nil {
		t.Fatal(err)
	}
	kvs, err = idx.Lookup([]uint64{5000})
	if err != nil || len(kvs) != 1 || kvs[0].Value != 1 {
		t.Fatalf("after upsert: %+v, %v", kvs, err)
	}

	res, err := idx.ScanRange(0, 99, PredAll())
	if err != nil || res.Matched != 100 {
		t.Fatalf("scan range: %+v, %v", res, err)
	}
	rows, err := idx.Rows(5, 8, PredAll(), 10)
	if err != nil || len(rows) != 4 || rows[0].Key != 5 || rows[0].Value != 50 {
		t.Fatalf("rows: %+v, %v", rows, err)
	}
	if idx.Name() != "orders" || idx.Domain() != 1<<16 {
		t.Fatalf("metadata: %s %d", idx.Name(), idx.Domain())
	}
	if s := db.Stats(); s.Operations == 0 || s.VirtualSeconds <= 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestColumnLifecycle(t *testing.T) {
	db, err := Open(Options{Machine: "single", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := db.CreateColumn("metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := col.LoadUniform(100, func(w int, i int64) uint64 { return uint64(i) }); err != nil {
		t.Fatal(err)
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}
	res, err := col.Scan(PredLess(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Matched != 40 { // 4 workers x values 0..9
		t.Fatalf("scan matched %d", res.Matched)
	}
	if col.Name() != "metrics" {
		t.Fatal("name")
	}
}

func TestPredicates(t *testing.T) {
	cases := []struct {
		p    Predicate
		v    uint64
		want bool
	}{
		{PredAll(), 5, true},
		{PredLess(5), 4, true},
		{PredLess(5), 5, false},
		{PredGreater(5), 6, true},
		{PredEqual(5), 5, true},
		{PredBetween(2, 4), 3, true},
		{PredBetween(2, 4), 5, false},
	}
	for _, c := range cases {
		if got := c.p.Matches(c.v); got != c.want {
			t.Errorf("%+v.Matches(%d) = %v", c.p, c.v, got)
		}
	}
}

// TestFailedCreateRollsBackName is the regression test for the create
// rollback bug: a failed CreateIndex/CreateColumn left the name registered
// in db.byName, so the name was burned forever while no object existed.
func TestFailedCreateRollsBackName(t *testing.T) {
	db, err := Open(Options{Machine: "single", Workers: 4, Balancer: "oneshot"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Domain smaller than the AEU count: engine.CreateIndex fails after
	// the name was registered.
	if _, err := db.CreateIndex("orders", 2); err == nil {
		t.Fatal("domain 2 with 4 workers accepted")
	}
	if id, stale := db.byName["orders"]; stale {
		t.Fatalf("failed create left %q registered as id %d", "orders", id)
	}
	burned := db.nextID

	// The name must be reusable after the failure.
	idx, err := db.CreateIndex("orders", 1<<16)
	if err != nil {
		t.Fatalf("name not reusable after failed create: %v", err)
	}
	if idx.Name() != "orders" {
		t.Fatalf("reused name = %q", idx.Name())
	}
	// The failed create's ID must NOT be reused: a partially failed
	// engine create may have attached partitions under it.
	if idx.id <= burned {
		t.Fatalf("id %d reused after failed create (burned through %d)", idx.id, burned)
	}

	// Same rollback contract for columns.
	if _, err := db.CreateColumn("orders"); err == nil {
		t.Fatal("duplicate name accepted across kinds")
	}
	col, err := db.CreateColumn("events")
	if err != nil {
		t.Fatal(err)
	}
	if col.id <= idx.id {
		t.Fatalf("ids not monotonic: column %d after index %d", col.id, idx.id)
	}
	if got := db.byName["events"]; got != col.id {
		t.Fatalf("byName[events] = %d, want %d", got, col.id)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	db, err := Open(Options{Machine: "single", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("orders", 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.LoadDense(1000, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}
	before := db.MetricsSnapshot()
	if _, err := idx.Lookup([]uint64{1, 2, 3, 40000}); err != nil {
		t.Fatal(err)
	}
	after := db.MetricsSnapshot()
	delta := after.Delta(before)

	if ops := delta.SumCounters("aeu.", ".ops"); ops <= 0 {
		t.Fatalf("aeu ops delta = %d after lookups", ops)
	}
	if app := after.SumCounters("routing.inbox.", ".appends"); app <= 0 {
		t.Fatalf("inbox appends = %d", app)
	}
	// Client commands inject straight into inboxes, so outbox flushes may
	// be zero here — but every AEU's outbox counters must be registered.
	for w := 0; w < db.Stats().Workers; w++ {
		if _, ok := after.Counters[fmt.Sprintf("routing.outbox.%d.flushes", w)]; !ok {
			t.Fatalf("routing.outbox.%d.flushes missing, want one per worker", w)
		}
	}
	if _, ok := after.Gauges["mem.allocated_bytes_total"]; !ok {
		t.Fatal("mem.allocated_bytes_total missing")
	}
	if _, ok := after.Counters["machine.link_bytes_total"]; !ok {
		t.Fatal("machine.link_bytes_total missing")
	}
	if _, ok := after.Counters["balance.cycles"]; !ok {
		t.Fatal("balance.cycles missing")
	}
}

// TestMetricNamespaceOneRegistry puts every registering layer on one
// registry: an engine with a WAL, a fault injector and the balancer, its
// wire server, and a client dialed with the engine's registry. The
// registry panics on a malformed name, on a first segment claimed from two
// packages and on a kind collision, so reaching the snapshot proves the
// layers share the namespace cleanly; each layer's prefix must be there.
func TestMetricNamespaceOneRegistry(t *testing.T) {
	db, err := Open(Options{
		Machine: "single", Workers: 2, Balancer: "oneshot", FaultSeed: 1,
		DataDir: t.TempDir(), ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateIndex("kv", 1<<10); err != nil {
		t.Fatal(err)
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(db.ServeAddr(), client.Options{Metrics: db.Engine().Metrics()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Lookup(c.Objects()[0].ID, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	snap := db.MetricsSnapshot()
	prefixes := map[string]bool{}
	for _, names := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range names {
			prefix, _, _ := strings.Cut(name, ".")
			prefixes[prefix] = true
		}
	}
	for name := range snap.Histograms {
		prefix, _, _ := strings.Cut(name, ".")
		prefixes[prefix] = true
	}
	for _, want := range []string{"aeu", "balance", "client", "durable", "faults", "machine", "mem", "routing", "server"} {
		if !prefixes[want] {
			t.Errorf("no %s.* metric on the shared registry (prefixes %v)", want, prefixes)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	db, err := Open(Options{Machine: "single", Workers: 2, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.CreateIndex("t", 1<<10); err != nil {
		t.Fatal(err)
	}
	if db.MetricsListenAddr() != "" {
		t.Fatal("endpoint bound before Start")
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}
	addr := db.MetricsListenAddr()
	if addr == "" {
		t.Fatal("no listen address after Start")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("endpoint body not a snapshot: %v", err)
	}
	if len(snap.Counters) == 0 {
		t.Fatal("endpoint snapshot has no counters")
	}
	db.Close()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("endpoint still serving after Close")
	}
}

func TestBalancerOption(t *testing.T) {
	db, err := Open(Options{Machine: "single", Workers: 4, Balancer: "ma2", BalancerIntervalSec: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	idx, err := db.CreateIndex("t", 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.LoadDense(1<<14, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Start(); err != nil {
		t.Fatal(err)
	}
	// Smoke: engine with the balancer goroutine running serves lookups.
	if _, err := idx.Lookup([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}
