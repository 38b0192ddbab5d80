package server_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"eris/internal/balance"
	"eris/internal/client"
	"eris/internal/colstore"
	"eris/internal/core"
	"eris/internal/faults"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/server"
	"eris/internal/topology"
	"eris/internal/wire"
)

const (
	idxObj routing.ObjectID = 1
	domain uint64           = 1 << 16
)

// startServer brings up an engine with one dense-loaded index and a wire
// server on an ephemeral port, and tears both down at test end.
func startServer(t *testing.T, workers int, faultSeed int64, balancing bool) (*core.Engine, *server.Server, string) {
	t.Helper()
	var inj *faults.Injector
	if faultSeed != 0 {
		inj = faults.New(faultSeed)
	}
	e, err := core.New(core.Config{
		Topology: topology.SingleNode(workers),
		Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
		Column:   colstore.Config{ChunkEntries: 1 << 10},
		Routing:  routing.Config{Faults: inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	if balancing {
		if err := e.Watch(idxObj, balance.OneShot{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.LoadIndexDense(idxObj, 4096, func(k uint64) uint64 { return k * 3 }); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	objects := []wire.ObjectInfo{{ID: uint32(idxObj), Kind: wire.KindIndex, Domain: domain, Name: "kv"}}
	srv := server.New(e, objects, server.Options{Faults: e.Faults()})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		e.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		e.Stop()
	})
	return e, srv, srv.Addr()
}

// TestServeConcurrentClients is the acceptance e2e: 8 concurrent clients,
// each pipelining batched upserts and lookups on its own connection while
// the balancer reshapes partitions, and every remote result must match what
// the in-process client API returns afterwards.
func TestServeConcurrentClients(t *testing.T) {
	eng, _, addr := startServer(t, 8, 0, true)

	const (
		clients       = 8
		batches       = 20
		batch         = 32
		perClientSpan = 2048
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			obj, ok := c.Object("kv")
			if !ok || obj.Domain != domain {
				errs <- fmt.Errorf("client %d: bad object table %+v", cl, c.Objects())
				return
			}
			base := uint64(8192 + cl*perClientSpan)
			// Pipeline: half the batches are written by a second goroutine
			// concurrently on the same connection.
			var inner sync.WaitGroup
			writeRange := func(from, to int) {
				defer inner.Done()
				for b := from; b < to; b++ {
					kvs := make([]prefixtree.KV, batch)
					for i := range kvs {
						k := base + uint64(b*batch+i)
						kvs[i] = prefixtree.KV{Key: k, Value: k ^ uint64(cl)}
					}
					if err := c.Upsert(obj.ID, kvs); err != nil {
						errs <- fmt.Errorf("client %d upsert: %w", cl, err)
						return
					}
				}
			}
			inner.Add(2)
			go writeRange(0, batches/2)
			go writeRange(batches/2, batches)
			inner.Wait()

			// Read a slice of our keys back over the wire.
			keys := make([]uint64, 0, 64)
			for i := 0; i < 64; i++ {
				keys = append(keys, base+uint64(i*7))
			}
			got, err := c.Lookup(obj.ID, keys)
			if err != nil {
				errs <- fmt.Errorf("client %d lookup: %w", cl, err)
				return
			}
			want, err := eng.LookupCtx(context.Background(), idxObj, append([]uint64(nil), keys...))
			if err != nil {
				errs <- fmt.Errorf("client %d engine lookup: %w", cl, err)
				return
			}
			sort.Slice(got, func(i, j int) bool { return got[i].Key < got[j].Key })
			sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
			if len(got) != len(want) {
				errs <- fmt.Errorf("client %d: wire lookup %d rows, in-process %d", cl, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					errs <- fmt.Errorf("client %d row %d: wire %+v, in-process %+v", cl, i, got[i], want[i])
					return
				}
			}
			// Deletes round-trip too.
			if err := c.Delete(obj.ID, []uint64{base}); err != nil {
				errs <- fmt.Errorf("client %d delete: %w", cl, err)
				return
			}
			if kvs, err := c.Lookup(obj.ID, []uint64{base}); err != nil || len(kvs) != 0 {
				errs <- fmt.Errorf("client %d: key survives delete: %+v, %v", cl, kvs, err)
				return
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := eng.MetricsSnapshot()
	if snap.Counter("server.accepted") < clients {
		t.Errorf("server.accepted = %d, want >= %d", snap.Counter("server.accepted"), clients)
	}
	if snap.Counter("server.requests") == 0 || snap.Counter("server.responses") == 0 {
		t.Errorf("server counters silent: requests=%d responses=%d",
			snap.Counter("server.requests"), snap.Counter("server.responses"))
	}
	if snap.Counter("server.requests") != snap.Counter("server.responses") {
		t.Errorf("requests %d != responses %d with no drops configured",
			snap.Counter("server.requests"), snap.Counter("server.responses"))
	}
}

// TestGracefulDrainLosesNoAckedWrites closes the server mid-stream while a
// client hammers upserts. Every write the client saw acknowledged must be
// readable from the engine afterwards; unacknowledged ones may vanish.
func TestGracefulDrainLosesNoAckedWrites(t *testing.T) {
	eng, srv, addr := startServer(t, 4, 0, false)

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, _ := c.Object("kv")

	acked := make(chan uint64, 1<<16)
	firstAck := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(20000); ; k++ {
			err := c.Upsert(obj.ID, []prefixtree.KV{{Key: k, Value: k + 1}})
			if err != nil {
				return // drain reached us; this write was NOT acked
			}
			acked <- k
			if k == 20000 {
				close(firstAck)
			}
		}
	}()

	// Drain concurrently with the stream, once at least one write is in.
	select {
	case <-firstAck:
	case <-done:
		t.Fatal("the write stream ended before its first ack")
	case <-time.After(10 * time.Second):
		t.Fatal("no write acked within 10 s")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	close(acked)

	var keys []uint64
	for k := range acked {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Fatal("no writes were acked before the drain; test proves nothing")
	}
	kvs, err := eng.LookupCtx(context.Background(), idxObj, append([]uint64(nil), keys...))
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(keys) {
		t.Fatalf("%d acked writes, only %d readable after drain", len(keys), len(kvs))
	}
	for _, kv := range kvs {
		if kv.Value != kv.Key+1 {
			t.Fatalf("acked write corrupted: %+v", kv)
		}
	}
}

// TestDropConnFault arms the DropConn fault and checks that the client
// observes a connection error (never a corrupt frame) and the counter moves.
func TestDropConnFault(t *testing.T) {
	eng, _, addr := startServer(t, 4, 7, false)
	eng.Faults().Arm(faults.DropConn, faults.Rule{After: 3, Every: 1, Limit: 1})

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, _ := c.Object("kv")

	var failed bool
	for i := 0; i < 10; i++ {
		if _, err := c.Lookup(obj.ID, []uint64{uint64(i)}); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("DropConn armed but no request failed")
	}
	if got := eng.Faults().Injected(faults.DropConn); got != 1 {
		t.Fatalf("injected DropConn = %d, want 1", got)
	}
	if n := eng.MetricsSnapshot().Counter("server.dropped_conns"); n != 1 {
		t.Fatalf("server.dropped_conns = %d, want 1", n)
	}
	// The connection is dead for good; a fresh one works.
	if _, err := c.Lookup(obj.ID, []uint64{1}); err == nil {
		t.Fatal("dropped connection still answers")
	}
	c2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Lookup(obj.ID, []uint64{1}); err != nil {
		t.Fatalf("fresh connection after drop: %v", err)
	}
}

// TestSlowWriteFault arms SlowWrite on every response and checks responses
// still arrive, correctly, just late.
func TestSlowWriteFault(t *testing.T) {
	eng, _, addr := startServer(t, 4, 7, false)
	eng.Faults().Arm(faults.SlowWrite, faults.Rule{Every: 1, Limit: 8})

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, _ := c.Object("kv")
	for i := uint64(0); i < 8; i++ {
		kvs, err := c.Lookup(obj.ID, []uint64{i})
		if err != nil || len(kvs) != 1 || kvs[0].Value != i*3 {
			t.Fatalf("lookup %d under SlowWrite: %+v, %v", i, kvs, err)
		}
	}
	if n := eng.MetricsSnapshot().Counter("server.slow_writes"); n == 0 {
		t.Fatal("server.slow_writes never moved")
	}
}

// TestBadFrameKillsConnection sends garbage after a valid handshake; the
// server must cut the connection instead of resynchronizing, and count it.
func TestBadFrameKillsConnection(t *testing.T) {
	eng, _, addr := startServer(t, 2, 0, false)
	nc := dialRaw(t, addr)

	// A frame with a bogus type byte.
	if _, err := nc.Write([]byte{9, 0, 0, 0, 0xff, 1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("connection not cleanly closed: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.MetricsSnapshot().Counter("server.bad_frames") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server.bad_frames never moved")
		}
		time.Sleep(time.Millisecond)
	}
}

// dialRaw opens a connection and completes the handshake by hand, so a
// test can put frames on the wire that the client would never send. The
// connection closes at test end.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	frame, err := wire.AppendFrameV(nil, &wire.Msg{Type: wire.THello, Magic: wire.Magic, Version: wire.Version}, wire.Version)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	var welcome wire.Msg
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := wire.ReadMsgV(nc, &welcome, nil, wire.Version); err != nil || welcome.Type != wire.TWelcome {
		t.Fatalf("handshake: %+v, %v", welcome, err)
	}
	nc.SetReadDeadline(time.Time{})
	return nc
}

// TestOversizedAnswerRefusedBeforeAdmission sends the two legal requests
// whose answer may not fit one frame: a lookup of more than wire.MaxRows
// keys (65 536 keys make a 512 KiB request) and a rows scan with a larger
// limit. Each must be answered with a TError before admission, so the
// engine never runs it.
func TestOversizedAnswerRefusedBeforeAdmission(t *testing.T) {
	eng, _, addr := startServer(t, 2, 0, false)
	nc := dialRaw(t, addr)

	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = uint64(i) % 4096 // all present
	}
	before := eng.MetricsSnapshot().Counter("server.admitted")
	for _, req := range []wire.Msg{
		{Type: wire.TLookup, Tag: 1, Object: uint32(idxObj), Keys: keys},
		{Type: wire.TScan, Tag: 2, Object: uint32(idxObj), Hi: domain - 1, Pred: colstore.Predicate{Op: colstore.All}, Limit: math.MaxUint32},
	} {
		frame, err := wire.AppendFrameV(nil, &req, wire.Version)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		var resp wire.Msg
		if _, err := wire.ReadMsgV(nc, &resp, nil, wire.Version); err != nil {
			t.Fatalf("%v: %v", req.Type, err)
		}
		if resp.Type != wire.TError || resp.Tag != req.Tag || resp.Code != wire.CodeGeneric {
			t.Fatalf("%v: response %v tag %d code %d, want a generic TError", req.Type, resp.Type, resp.Tag, resp.Code)
		}
	}
	if after := eng.MetricsSnapshot().Counter("server.admitted"); after != before {
		t.Fatalf("server.admitted %d -> %d: an oversized request reached the engine", before, after)
	}
}

// TestBadRequestSparesConnection makes calls that fail before they reach
// the server — a batch too large to frame, row limits outside
// 1..wire.MaxRows — and checks each error goes to its own caller only: the
// same connection answers a lookup after every one.
func TestBadRequestSparesConnection(t *testing.T) {
	_, _, addr := startServer(t, 2, 0, false)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, _ := c.Object("kv")
	all := colstore.Predicate{Op: colstore.All}
	scanRows := func(limit int) func() error {
		return func() error {
			_, err := c.ScanRows(obj.ID, 0, 10, all, limit)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"upsert of 70000 pairs", func() error { return c.Upsert(obj.ID, make([]prefixtree.KV, 70000)) }},
		{"rows limit 0", scanRows(0)},
		{"rows limit MaxRows+1", scanRows(wire.MaxRows + 1)},
		{"rows limit 1<<32", scanRows(1 << 32)},
	} {
		if err := tc.call(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if kvs, err := c.Lookup(obj.ID, []uint64{5}); err != nil || len(kvs) != 1 || kvs[0].Value != 15 {
			t.Fatalf("lookup after %s = %+v, %v", tc.name, kvs, err)
		}
	}
}

// TestPoolPipelines sanity-checks the pool: many goroutines sharing few
// connections, all batches answered.
func TestPoolPipelines(t *testing.T) {
	_, _, addr := startServer(t, 4, 0, false)
	pool, err := client.NewPool(addr, 2, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	if pool.Size() != 2 {
		t.Fatalf("pool size = %d", pool.Size())
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := pool.Get()
			obj, _ := c.Object("kv")
			for i := 0; i < 10; i++ {
				k := uint64(g*100 + i)
				kvs, err := c.Lookup(obj.ID, []uint64{k})
				if err != nil || len(kvs) != 1 || kvs[0].Value != k*3 {
					errs <- fmt.Errorf("goroutine %d: lookup %d = %+v, %v", g, k, kvs, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPipelinedConnLeavesNoHandlers pipelines 64 lookups on one raw
// connection, reads every answer, pipelines 64 more and closes without
// reading them. The connection's handler goroutines are reused — at most
// maxInFlight (64) of them beside its reader; there is no writer goroutine
// — and every one of them must be gone once the connection ends.
func TestPipelinedConnLeavesNoHandlers(t *testing.T) {
	_, _, addr := startServer(t, 2, 0, false)
	before := runtime.NumGoroutine()
	nc := dialRaw(t, addr)
	pipeline := func(base uint64) {
		var frames []byte
		for i := uint64(0); i < 64; i++ {
			req := wire.Msg{Type: wire.TLookup, Tag: base + i, Object: uint32(idxObj), Keys: []uint64{i, i + 2048}}
			var err error
			if frames, err = wire.AppendFrameV(frames, &req, wire.Version); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := nc.Write(frames); err != nil {
			t.Fatal(err)
		}
	}
	pipeline(1)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	for i := 0; i < 64; i++ {
		var resp wire.Msg
		var err error
		if buf, err = wire.ReadMsgV(nc, &resp, buf, wire.Version); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.Type != wire.TResult || len(resp.KVs) != 2 {
			t.Fatalf("response %d = %+v", i, resp)
		}
	}
	// The reader and at least one handler now wait for more.
	if n := runtime.NumGoroutine() - before; n < 2 || n > 1+64 {
		t.Fatalf("%d goroutines serve one connection, want 2..65", n)
	}
	pipeline(65)
	nc.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before the connection, %d after it closed",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
