package server_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"eris/internal/client"
	"eris/internal/wire"
)

// Framing tests for the buffered readers and the writer-less write path:
// frames larger than a read buffer, frames split across writes, frames
// sharing a write with the handshake, and pipelined responses coalesced
// into shared writes must all arrive whole.

// lookupFrame encodes a lookup of n consecutive keys from first under tag.
func lookupFrame(t *testing.T, dst []byte, tag uint64, first uint64, n int) []byte {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = first + uint64(i)
	}
	req := wire.Msg{Type: wire.TLookup, Tag: tag, Object: uint32(idxObj), Keys: keys}
	out, err := wire.AppendFrameV(dst, &req, wire.Version)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkResult checks that m answers a lookup of n consecutive keys from
// first: every key of the dense-loaded index is present with value 3*key.
func checkResult(t *testing.T, m *wire.Msg, first uint64, n int) {
	t.Helper()
	if m.Type != wire.TResult || len(m.KVs) != n {
		t.Fatalf("tag %d: %v with %d rows, want a result of %d", m.Tag, m.Type, len(m.KVs), n)
	}
	for i, kv := range m.KVs {
		if kv.Key != first+uint64(i) || kv.Value != 3*kv.Key {
			t.Fatalf("tag %d row %d = %+v", m.Tag, i, kv)
		}
	}
}

// mixedSize is the key count of pipelined request i: mostly small, one of
// 1000 keys, whose 8 KiB request and 16 KiB answer exceed a 4 KiB read
// buffer on either side.
func mixedSize(i int) int {
	if i == 37 {
		return 1000
	}
	return []int{1, 7, 64, 300}[i%4]
}

// TestPipelinedMixedFramesComeBackWhole writes 64 lookups of mixed sizes in
// one write on a raw connection, then has 64 goroutines do the same through
// one client connection; every answer must come back whole and once.
func TestPipelinedMixedFramesComeBackWhole(t *testing.T) {
	_, _, addr := startServer(t, 4, 0, false)
	nc := dialRaw(t, addr)
	var frames []byte
	for i := 0; i < 64; i++ {
		frames = lookupFrame(t, frames, uint64(i+1), uint64(i*50), mixedSize(i))
	}
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	seen := make(map[uint64]bool)
	var buf []byte
	for range 64 {
		var m wire.Msg
		var err error
		if buf, err = wire.ReadMsgV(nc, &m, buf, wire.Version); err != nil {
			t.Fatalf("after %d responses: %v", len(seen), err)
		}
		i := int(m.Tag) - 1
		if i < 0 || i >= 64 || seen[m.Tag] {
			t.Fatalf("unexpected or repeated tag %d", m.Tag)
		}
		seen[m.Tag] = true
		checkResult(t, &m, uint64(i*50), mixedSize(i))
	}

	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := range 64 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first, n := uint64(i*50), mixedSize(i)
			keys := make([]uint64, n)
			for j := range keys {
				keys[j] = first + uint64(j)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			kvs, err := c.LookupCtx(ctx, uint32(idxObj), keys)
			if err == nil && len(kvs) != n {
				err = fmt.Errorf("%d rows", len(kvs))
			}
			for j, kv := range kvs {
				if err == nil && (kv.Key != keys[j] || kv.Value != 3*kv.Key) {
					err = fmt.Errorf("row %d = %+v", j, kv)
				}
			}
			if err != nil {
				errs <- fmt.Errorf("client lookup %d of %d keys: %w", i, n, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRequestSplitAcrossWrites sends one request in two writes, split
// inside the length prefix and inside the body; the server must wait for
// the rest and answer the whole frame.
func TestRequestSplitAcrossWrites(t *testing.T) {
	_, _, addr := startServer(t, 2, 0, false)
	nc := dialRaw(t, addr)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for tag, split := range []int{2, 40} {
		frame := lookupFrame(t, nil, uint64(tag+1), 100, 16)
		if _, err := nc.Write(frame[:split]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if _, err := nc.Write(frame[split:]); err != nil {
			t.Fatal(err)
		}
		var m wire.Msg
		if _, err := wire.ReadMsgV(nc, &m, nil, wire.Version); err != nil {
			t.Fatalf("split at %d: %v", split, err)
		}
		if m.Tag != uint64(tag+1) {
			t.Fatalf("split at %d: tag %d", split, m.Tag)
		}
		checkResult(t, &m, 100, 16)
	}
}

// TestHelloAndRequestInOneWrite sends the Hello and a request in a single
// write, so the request's bytes reach the server's read buffer during the
// handshake: buffering them there must not lose them.
func TestHelloAndRequestInOneWrite(t *testing.T) {
	_, _, addr := startServer(t, 2, 0, false)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	frames, err := wire.AppendFrameV(nil, &wire.Msg{Type: wire.THello, Magic: wire.Magic, Version: wire.Version}, wire.Version)
	if err != nil {
		t.Fatal(err)
	}
	frames = lookupFrame(t, frames, 7, 0, 64)
	if _, err := nc.Write(frames); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	var welcome, m wire.Msg
	if _, err := wire.ReadMsgV(nc, &welcome, nil, wire.Version); err != nil || welcome.Type != wire.TWelcome {
		t.Fatalf("handshake: %+v, %v", welcome, err)
	}
	if _, err := wire.ReadMsgV(nc, &m, nil, wire.Version); err != nil {
		t.Fatal(err)
	}
	if m.Tag != 7 {
		t.Fatalf("tag %d, want 7", m.Tag)
	}
	checkResult(t, &m, 0, 64)
}
