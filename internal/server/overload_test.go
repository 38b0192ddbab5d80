package server_test

// Overload-control tests: the global admission budget sheds excess load
// with typed errors instead of queueing without bound, deadlines propagate
// end to end, and a hostile handshake — or one naming another protocol
// version — can neither hang a connection slot nor leak its goroutines.

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eris/internal/client"
	"eris/internal/colstore"
	"eris/internal/core"
	"eris/internal/metrics"
	"eris/internal/prefixtree"
	"eris/internal/server"
	"eris/internal/topology"
	"eris/internal/wire"
)

// startServerOpts is startServer with caller-controlled server options.
func startServerOpts(t *testing.T, workers int, opts server.Options) (*core.Engine, *server.Server, string) {
	t.Helper()
	e, err := core.New(core.Config{
		Topology: topology.SingleNode(workers),
		Tree:     prefixtree.Config{KeyBits: 32, PrefixBits: 8},
		Column:   colstore.Config{ChunkEntries: 1 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex(idxObj, domain); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadIndexDense(idxObj, 4096, func(k uint64) uint64 { return k * 3 }); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	objects := []wire.ObjectInfo{{ID: uint32(idxObj), Kind: wire.KindIndex, Domain: domain, Name: "kv"}}
	srv := server.New(e, objects, opts)
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

// TestOverloadShedsAndPreservesAckedWrites is the overload e2e: a tiny
// global budget saturated by scan hogs must reject excess requests with
// wire.ErrOverloaded (within their deadline, not after unbounded
// queueing), requests that do get through must still answer correctly,
// and every write acknowledged under overload must be durable.
func TestOverloadShedsAndPreservesAckedWrites(t *testing.T) {
	eng, _, addr := startServerOpts(t, 4, server.Options{GlobalInFlight: 2})

	stop := make(chan struct{})
	var hogWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		hogWG.Add(1)
		go func() {
			defer hogWG.Done()
			c, err := client.Dial(addr, client.Options{OverloadRetries: -1})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			obj, _ := c.Object("kv")
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Full-domain scans hold the execution slots; overload
				// rejections here are expected and ignored.
				c.ScanRange(obj.ID, 0, domain-1, colstore.Predicate{Op: colstore.All})
			}
		}()
	}
	var stopOnce sync.Once
	stopHogs := func() {
		stopOnce.Do(func() { close(stop) })
		hogWG.Wait()
	}
	defer stopHogs()

	// An acked-write stream runs throughout: retried on overload, and
	// every key it saw acknowledged must be readable afterwards.
	var acked []uint64
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		obj, _ := c.Object("kv")
		for k := uint64(30000); k < 30200; k++ {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := c.UpsertCtx(ctx, obj.ID, []prefixtree.KV{{Key: k, Value: k + 7}}); err == nil {
				acked = append(acked, k)
			}
			cancel()
		}
	}()

	// Probes: bursts of concurrent lookups with a deadline and no retry.
	// Under a saturated 2-slot budget with a 2-deep queue, bursts of 8 must
	// eventually observe a typed overload rejection.
	probe, err := client.Dial(addr, client.Options{OverloadRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	obj, _ := probe.Object("kv")
	var sawOverload, sawSuccess atomic.Int64
	burstDeadline := time.Now().Add(10 * time.Second)
	for sawOverload.Load() == 0 || sawSuccess.Load() == 0 {
		if time.Now().After(burstDeadline) {
			t.Fatalf("no overload rejection observed: overloaded=%d success=%d",
				sawOverload.Load(), sawSuccess.Load())
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				defer cancel()
				start := time.Now()
				kvs, err := probe.LookupCtx(ctx, obj.ID, []uint64{uint64(i)})
				switch {
				case err == nil:
					if len(kvs) != 1 || kvs[0].Value != uint64(i)*3 {
						t.Errorf("lookup under overload answered wrong: %+v", kvs)
					}
					sawSuccess.Add(1)
				case errors.Is(err, wire.ErrOverloaded):
					// The reject must come fast — shedding, not queueing to
					// the deadline.
					if d := time.Since(start); d > 450*time.Millisecond {
						t.Errorf("overload rejection took %v, want immediate", d)
					}
					sawOverload.Add(1)
				case errors.Is(err, wire.ErrDeadlineExceeded):
					// Acceptable under saturation; keep probing for a shed.
				default:
					t.Errorf("unexpected probe error: %v", err)
				}
			}(i)
		}
		wg.Wait()
	}

	stopHogs()
	<-writerDone

	if len(acked) == 0 {
		t.Fatal("no writes were acked under overload; test proves nothing")
	}
	kvs, err := eng.LookupCtx(context.Background(), idxObj, append([]uint64(nil), acked...))
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(acked) {
		t.Fatalf("%d acked writes, only %d readable", len(acked), len(kvs))
	}
	for _, kv := range kvs {
		if kv.Value != kv.Key+7 {
			t.Fatalf("acked write corrupted: %+v", kv)
		}
	}

	snap := eng.MetricsSnapshot()
	if snap.Counter("server.shed") == 0 {
		t.Error("server.shed never moved under saturation")
	}
	if snap.Counter("server.admitted") == 0 {
		t.Error("server.admitted never moved")
	}
}

// TestClientRetriesOverloadToSuccess saturates a one-slot budget briefly
// and checks the default retry policy rides out the rejection: the caller
// sees success, the retry counter moves.
func TestClientRetriesOverloadToSuccess(t *testing.T) {
	eng, _, addr := startServerOpts(t, 4, server.Options{GlobalInFlight: 1})

	_ = eng
	stop := make(chan struct{})
	var hogWG sync.WaitGroup
	// Two hog connections, each pipelining 4 concurrent scans: the 1-slot
	// budget stays saturated even while frames are in flight.
	hogConn, err := client.Dial(addr, client.Options{OverloadRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hogConn.Close()
	hobj, _ := hogConn.Object("kv")
	for i := 0; i < 8; i++ {
		hogWG.Add(1)
		go func() {
			defer hogWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hogConn.ScanRange(hobj.ID, 0, domain-1, colstore.Predicate{Op: colstore.All})
			}
		}()
	}

	reg := metrics.NewRegistry()
	c, err := client.Dial(addr, client.Options{
		OverloadRetries: 1000, RetryBackoff: 200 * time.Microsecond, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	obj, _ := c.Object("kv")
	var retried bool
	deadline := time.Now().Add(10 * time.Second)
	for !retried && time.Now().Before(deadline) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := c.Lookup(obj.ID, []uint64{uint64(i)}); err != nil {
					t.Errorf("lookup with retries failed: %v", err)
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			break
		}
		retried = reg.Snapshot().Counter("client.retries") > 0
	}
	close(stop)
	hogWG.Wait()
	if !retried && !t.Failed() {
		t.Skip("budget never saturated on this machine; retry path not exercised")
	}
	if retried && reg.Snapshot().Counter("client.overloaded") == 0 {
		t.Error("client.overloaded never moved despite retries")
	}
}

// TestServerDeadlineExceededCode hand-rolls a connection and sends a
// request whose deadline has effectively already passed; the server must
// answer with a TError carrying the deadline-exceeded code — the request
// may never hang or be dropped without an answer.
func TestServerDeadlineExceededCode(t *testing.T) {
	_, _, addr := startServer(t, 2, 0, false)
	nc := dialRaw(t, addr)

	// 1µs relative deadline: expired by any execution path.
	req := wire.Msg{Type: wire.TScan, Object: uint32(idxObj), Tag: 7, Lo: 0, Hi: domain - 1,
		Pred: colstore.Predicate{Op: colstore.All}, DeadlineUS: 1}
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
		t.Fatal(err)
	}
	if resp.Type != wire.TError || resp.Tag != 7 {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("reject code = %d, want %d (err %q)", resp.Code, wire.CodeDeadlineExceeded, resp.Err)
	}
	if !errors.Is(wire.ErrFromMsg(&resp), wire.ErrDeadlineExceeded) {
		t.Fatalf("ErrFromMsg = %v", wire.ErrFromMsg(&resp))
	}
}

// TestHandshakeHardening drives the hostile-handshake shapes — silent,
// truncated, oversized — and a well-formed Hello naming version 1, and
// checks each connection is cut at (or before) the handshake timeout
// without leaking its goroutines.
func TestHandshakeHardening(t *testing.T) {
	server.SetHandshakeTimeout(t, 150*time.Millisecond)
	_, _, addr := startServerOpts(t, 2, server.Options{})

	before := runtime.NumGoroutine()
	cases := []struct {
		name string
		send func(nc net.Conn)
	}{
		{"absent", func(net.Conn) {}},
		{"truncated", func(nc net.Conn) {
			// A frame length promising more bytes than ever arrive.
			nc.Write([]byte{40, 0, 0, 0, byte(wire.THello), 1, 2, 3})
		}},
		{"oversized", func(nc net.Conn) {
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], wire.MaxFrame+9+1)
			nc.Write(hdr[:])
		}},
		{"version-1 hello", func(nc net.Conn) {
			frame, _ := wire.AppendFrameV(nil, &wire.Msg{Type: wire.THello, Magic: wire.Magic, Version: 1}, wire.Version)
			nc.Write(frame)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			tc.send(nc)
			// The server must close the connection by the handshake timeout
			// (plus slack), never serve past a bad hello.
			nc.SetReadDeadline(time.Now().Add(3 * time.Second))
			got, err := io.ReadAll(nc)
			if err != nil {
				t.Fatalf("connection not cleanly closed: %v", err)
			}
			if len(got) > 0 {
				t.Fatalf("server answered a bad hello with %d bytes", len(got))
			}
		})
	}

	// Both per-connection goroutines (reader, writer) must be gone.
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked: %d before, %d after handshake abuse",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
