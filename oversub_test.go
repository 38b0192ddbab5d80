package eris

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"eris/internal/client"
)

// TestServedLatencyWithMoreAEUsThanCores guards the bar that parking idle
// AEUs removed: with 8 workers on 2 Ps every idle AEU used to re-queue
// itself through runtime.Gosched, the run queues never emptied, the
// netpoller was reached only by sysmon's 10 ms poll, and a served request
// cost a flat 20 ms (two polls). The durable variant covers the other
// place the starvation could come back: an AEU waiting for the fsync that
// releases its parked acks.
func TestServedLatencyWithMoreAEUsThanCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		requests = 200
		keysPer  = 64
		domain   = 1 << 20
		bar      = 5 * time.Millisecond
	)
	for _, tc := range []struct {
		name    string
		durable bool
	}{{"memory", false}, {"datadir_syncwrites", true}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Machine: "intel", Workers: 8, ListenAddr: "127.0.0.1:0"}
			if tc.durable {
				opts.DataDir, opts.SyncWrites = t.TempDir(), true
			}
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			idx, err := db.CreateIndex("kv", domain)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.LoadDense(domain, func(k uint64) uint64 { return k + 1 }); err != nil {
				t.Fatal(err)
			}
			if err := db.Start(); err != nil {
				t.Fatal(err)
			}
			c, err := client.Dial(db.ServeAddr(), client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var obj uint32
			for _, o := range c.Objects() {
				if o.Name == "kv" {
					obj = o.ID
				}
			}

			// One key per 1/64 of the domain: every request fans out to all
			// eight AEUs.
			keys := make([]uint64, keysPer)
			kvs := make([]KV, keysPer)
			median := func(op func(i int) error) time.Duration {
				lat := make([]time.Duration, requests)
				for i := range lat {
					for j := range keys {
						keys[j] = uint64(j)*(domain/keysPer) + uint64(i)
						kvs[j] = KV{Key: keys[j], Value: uint64(i)}
					}
					start := time.Now()
					if err := op(i); err != nil {
						t.Fatal(err)
					}
					lat[i] = time.Since(start)
				}
				sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
				return lat[requests/2]
			}

			got := median(func(int) error {
				res, err := c.Lookup(obj, keys)
				if err == nil && len(res) != keysPer {
					t.Fatalf("lookup found %d of %d loaded keys", len(res), keysPer)
				}
				return err
			})
			t.Logf("median of %d served %d-key lookups: %v", requests, keysPer, got)
			if got >= bar {
				t.Errorf("median lookup latency %v, want < %v: idle AEUs are starving the netpoller again", got, bar)
			}
			if !tc.durable {
				return
			}
			// Upserts wait for eight fsyncs on whatever disk the temp dir
			// sits on, so only the old bar itself is asserted: two sysmon
			// periods on top of any fsync.
			got = median(func(int) error { return c.Upsert(obj, kvs) })
			t.Logf("median of %d served %d-key SyncWrites upserts: %v", requests, keysPer, got)
			if got >= 20*time.Millisecond {
				t.Errorf("median SyncWrites upsert latency %v, want < 20ms", got)
			}
		})
	}
}
