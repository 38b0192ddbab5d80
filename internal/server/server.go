// Package server is the eriswire TCP serving layer: it exposes a running
// engine (internal/core) over the length-prefixed binary protocol of
// internal/wire. Each connection gets a reader goroutine, which reads
// through a bufio.Reader (one read syscall per buffer, not two per frame),
// and a pool of reused handler goroutines: the reader hands each decoded
// request to an idle handler, starting a new one only when none is idle
// (at most maxInFlight per connection; all exit with the connection). A
// handler calls the engine's synchronous batch API directly — the decoded
// key and KV batches are handed to the engine as-is, never re-sliced — and
// writes its tagged response itself, so responses leave in completion
// order, not arrival order. There is no writer goroutine: a handler encodes
// its response into the connection's write buffer under a write mutex,
// and the last of a burst of concurrent writers sends the buffer, so
// pipelined responses still leave in one write. A per-connection in-flight
// semaphore bounds concurrent handlers: when a client pipelines more than
// maxInFlight requests, the reader simply stops reading and TCP
// backpressure does the rest.
//
// Shutdown is a graceful drain: stop accepting, stop reading, finish every
// in-flight request (each has sent its response when it finishes), then
// close. A write the server has acknowledged is therefore durable in the
// engine — clients may lose unanswered requests on shutdown, never acked
// ones.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eris/internal/core"
	"eris/internal/faults"
	"eris/internal/metrics"
	"eris/internal/routing"
	"eris/internal/wire"
)

// maxInFlight bounds the requests one connection may have executing or
// writing. Beyond it the connection's reader stalls, pushing back on the
// client through TCP flow control, so a peer that writes without reading
// cannot pile up responses.
const maxInFlight = 64

// maxKeptWriteBuf bounds the write buffer a connection keeps between
// bursts; a larger one (a big scan answer) is dropped after it is sent.
const maxKeptWriteBuf = 64 << 10

// Options tunes the serving layer.
type Options struct {
	// GlobalInFlight bounds concurrently executing requests across ALL
	// connections (default 1024) — the admission-control budget. Requests
	// beyond it wait in a queue as deep as the budget or are shed with an
	// overloaded error instead of piling up in the engine.
	GlobalInFlight int
	// DefaultDeadline, when non-zero, is applied to every request that
	// carries no deadline of its own (DeadlineUS = 0).
	DefaultDeadline time.Duration
	// Faults, when non-nil, threads the engine's deterministic fault
	// injector through the serving path (DropConn, SlowWrite).
	Faults *faults.Injector
}

func (o Options) withDefaults() Options {
	if o.GlobalInFlight == 0 {
		o.GlobalInFlight = 1024
	}
	return o
}

// handshakeTimeout bounds how long a fresh connection may take to send its
// Hello. It is a variable only so the hardening test can shorten it.
var handshakeTimeout = 5 * time.Second

// Server serves one engine over TCP.
type Server struct {
	eng     *core.Engine
	objects []wire.ObjectInfo
	opts    Options
	admit   *admitter

	ln       net.Listener
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup

	mu       sync.Mutex
	conns    map[*conn]struct{}
	draining bool

	accepted   *metrics.Counter
	active     *metrics.Gauge
	requests   *metrics.Counter
	responses  *metrics.Counter
	errors     *metrics.Counter // requests answered with TError
	badFrames  *metrics.Counter // connections dropped on protocol errors
	dropsInj   *metrics.Counter // connections killed by the DropConn fault
	slowWrites *metrics.Counter // writes delayed by the SlowWrite fault
}

// slowWriteDelay is the stall injected per SlowWrite fault hit: long
// enough to back a pipelined connection up against its in-flight limit,
// short enough to keep chaos tests fast.
const slowWriteDelay = 2 * time.Millisecond

// New wraps a started engine. objects is the table announced to clients in
// the Welcome; the server answers requests for exactly these ids. Counters
// register on the engine's metrics registry under server.*.
func New(eng *core.Engine, objects []wire.ObjectInfo, opts Options) *Server {
	reg := eng.Metrics()
	opts = opts.withDefaults()
	return &Server{
		eng:        eng,
		objects:    objects,
		opts:       opts,
		admit:      newAdmitter(reg, opts.GlobalInFlight),
		conns:      make(map[*conn]struct{}),
		accepted:   reg.Counter("server.accepted"),
		active:     reg.Gauge("server.active_conns"),
		requests:   reg.Counter("server.requests"),
		responses:  reg.Counter("server.responses"),
		errors:     reg.Counter("server.errors"),
		badFrames:  reg.Counter("server.bad_frames"),
		dropsInj:   reg.Counter("server.dropped_conns"),
		slowWrites: reg.Counter("server.slow_writes"),
	}
}

// Listen binds addr and starts accepting connections.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.acceptWG.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.acceptWG.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed (drain) or fatal
		}
		c := &conn{s: s, nc: nc, br: bufio.NewReader(nc), aborted: make(chan struct{})}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepted.Inc()
		s.active.Add(1)
		s.connWG.Add(1)
		go c.serve()
	}
}

// Close drains the server: it stops accepting, stops reading on every
// connection, waits for in-flight requests to complete and their responses
// to flush, then closes the connections. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.acceptWG.Wait()
		s.connWG.Wait()
		return nil
	}
	s.draining = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.stopReading()
	}
	s.acceptWG.Wait()
	s.connWG.Wait()
	return nil
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.active.Add(-1)
}

// conn is one client connection.
type conn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader // the handshake and readLoop read through it

	// The write side (see send): writers counts the handlers inside send,
	// wmu guards wbuf (frames not yet sent) and wfailed (a write failed,
	// so the peer is gone and later frames are dropped).
	writers atomic.Int32
	wmu     sync.Mutex
	wbuf    []byte
	wfailed bool

	handlers sync.WaitGroup
	aborted  chan struct{} // closed by abort(); unblocks queued handlers
	abortOne sync.Once
}

// stopReading makes the connection's reader return on its next read
// without touching in-flight work; the drain path calls it.
func (c *conn) stopReading() {
	c.nc.SetReadDeadline(time.Now())
}

// abort kills the connection immediately (protocol violation or DropConn
// fault): pending writes are abandoned, the peer sees a reset or EOF
// mid-stream but never a half frame followed by more data.
func (c *conn) abort() {
	c.abortOne.Do(func() {
		close(c.aborted)
		c.nc.Close()
	})
}

func (c *conn) serve() {
	defer c.s.connWG.Done()
	defer c.s.removeConn(c)

	if err := c.handshake(); err != nil {
		c.s.badFrames.Inc()
		c.abort()
	} else {
		c.readLoop()
	}
	// Reader is done (EOF, error, or drain): let in-flight handlers finish
	// (each has sent its response by then), then close the socket.
	c.handlers.Wait()
	c.nc.Close()
}

// handshake reads the client's Hello and answers with the object table. A
// Hello with the wrong magic or naming any version other than
// wire.Version fails it, and the caller closes the connection.
func (c *conn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var m wire.Msg
	if _, err := wire.ReadMsgV(c.br, &m, nil, wire.Version); err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Time{})
	if m.Type != wire.THello || m.Magic != wire.Magic {
		return wire.ErrBadMagic
	}
	if m.Version != wire.Version {
		return wire.ErrVersion
	}
	welcome := wire.Msg{Type: wire.TWelcome, Version: wire.Version, Objects: c.s.objects}
	c.send(&welcome)
	return nil
}

// request is one decoded request on its way from the reader to a handler.
type request struct {
	m                 wire.Msg
	arrival, deadline time.Time
}

func (c *conn) readLoop() {
	// The semaphore is the per-connection in-flight bound: acquired by the
	// reader before dispatch, released when the handler finished encoding
	// its response. A full semaphore stops the reader — backpressure.
	sem := make(chan struct{}, maxInFlight)
	// Handlers are reused: each loops over work until the connection ends,
	// so its grown stack serves the next request too. The reader spawns a
	// new one only when none waits on work, and never more than
	// maxInFlight; with that many, one of them is free or about to be,
	// because the reader holds a semaphore slot none of them does.
	work := make(chan request)
	defer close(work)
	handlers := 0
	var buf []byte
	for {
		var r request
		var err error
		if buf, err = wire.ReadMsgV(c.br, &r.m, buf, wire.Version); err != nil {
			// EOF and the drain deadline are normal ends; a frame the
			// codec rejected means the peer is corrupt — kill the
			// connection rather than resynchronize on a byte stream.
			if isProtocolErr(err) {
				c.s.badFrames.Inc()
				c.abort()
			}
			return
		}
		// The request's absolute deadline: the wire field is relative to
		// leaving the client, so its clock never needs to agree with ours.
		r.arrival = time.Now()
		if r.m.DeadlineUS > 0 {
			r.deadline = r.arrival.Add(time.Duration(r.m.DeadlineUS) * time.Microsecond)
		} else if c.s.opts.DefaultDeadline > 0 {
			r.deadline = r.arrival.Add(c.s.opts.DefaultDeadline)
		}
		select {
		case sem <- struct{}{}:
		case <-c.aborted:
			return
		}
		c.s.requests.Inc()
		select {
		case work <- r:
			continue
		default:
		}
		if handlers == maxInFlight {
			work <- r
			continue
		}
		handlers++
		c.handlers.Add(1)
		go c.handleLoop(r, work, sem)
	}
}

// handleLoop is one reused handler goroutine: it handles first, then every
// request it receives on work until the reader closes it.
func (c *conn) handleLoop(first request, work <-chan request, sem <-chan struct{}) {
	defer c.handlers.Done()
	for r, ok := first, true; ok; r, ok = <-work {
		c.handle(&r.m, r.arrival, r.deadline)
		<-sem
	}
}

// isProtocolErr reports whether a read failed because the peer sent bytes
// the codec rejects (as opposed to the connection simply ending).
func isProtocolErr(err error) bool {
	return errors.Is(err, wire.ErrTruncated) || errors.Is(err, wire.ErrBadType) ||
		errors.Is(err, wire.ErrFrameSize) || errors.Is(err, wire.ErrTrailing) ||
		errors.Is(err, wire.ErrBadPred)
}

// handle admits one request against the global budget, executes it, and
// sends the tagged response. Oversized, shed or expired requests are
// answered with their reject code without ever touching the engine.
func (c *conn) handle(m *wire.Msg, arrival time.Time, deadline time.Time) {
	var resp wire.Msg
	if err := checkAnswerSize(m); err != nil {
		resp = c.errMsg(err)
	} else if err := c.s.admit.admit(arrival, deadline, c.aborted); err != nil {
		resp = c.errMsg(err)
	} else {
		execStart := time.Now()
		resp = c.execute(m, deadline)
		c.s.admit.release(time.Since(execStart))
	}
	resp.Tag = m.Tag
	if c.s.opts.Faults.Should(faults.DropConn) {
		// Kill the connection in place of the response: the client must
		// observe a connection error, never a half-written frame.
		c.s.dropsInj.Inc()
		c.abort()
		return
	}
	c.send(&resp)
	c.s.responses.Inc()
}

// send encodes m onto the connection's write buffer and, when no other
// handler is inside send, writes the buffer out. A handler bumps writers
// before it queues on wmu and drops it under wmu after appending, so a
// handler that sees a non-zero count after its own decrement leaves its
// frame to a writer still to come, which sends it with its own: pipelined
// responses leave in one write, and the last writer of a burst never
// finds the buffer holding someone else's unsent frame without sending it.
// A write blocked on a peer that does not read holds wmu, so the other
// handlers, their semaphore slots and the reader all stall: the same
// backpressure a bounded queue to a writer goroutine gave. abort closes
// the socket, which fails the blocked write and frees them.
func (c *conn) send(m *wire.Msg) {
	c.writers.Add(1)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.s.opts.Faults.Should(faults.SlowWrite) {
		c.s.slowWrites.Inc()
		time.Sleep(slowWriteDelay)
	}
	if !c.wfailed {
		n := len(c.wbuf)
		buf, err := wire.AppendFrameV(c.wbuf, m, wire.Version)
		if err != nil {
			errMsg := wire.Msg{Type: wire.TError, Tag: m.Tag, Err: err.Error()}
			buf, _ = wire.AppendFrameV(buf[:n], &errMsg, wire.Version)
		}
		c.wbuf = buf
	}
	if c.writers.Add(-1) > 0 || len(c.wbuf) == 0 {
		return
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		// The peer is gone: drop this and every later frame.
		c.wfailed = true
	}
	c.wbuf = c.wbuf[:0]
	if cap(c.wbuf) > maxKeptWriteBuf {
		c.wbuf = nil
	}
}

// checkAnswerSize refuses a request whose answer could not fit one frame: a
// lookup of more than wire.MaxRows keys, or a rows scan with a larger
// Limit.
func checkAnswerSize(m *wire.Msg) error {
	if (m.Type == wire.TLookup && len(m.Keys) > wire.MaxRows) || (m.Type == wire.TScan && m.Limit > wire.MaxRows) {
		return fmt.Errorf("server: %v answer may exceed %d rows", m.Type, wire.MaxRows)
	}
	return nil
}

// execute maps one request onto the engine's synchronous client API. The
// decoded batches are passed through untouched; the deadline rides a
// context so the engine can expire work that outlives it.
func (c *conn) execute(m *wire.Msg, deadline time.Time) wire.Msg {
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	switch m.Type {
	case wire.TLookup:
		kvs, err := c.s.eng.LookupCtx(ctx, routing.ObjectID(m.Object), m.Keys)
		if err != nil {
			return c.errMsg(err)
		}
		return wire.Msg{Type: wire.TResult, KVs: kvs}
	case wire.TUpsert:
		if err := c.s.eng.UpsertCtx(ctx, routing.ObjectID(m.Object), m.KVs); err != nil {
			return c.errMsg(err)
		}
		return wire.Msg{Type: wire.TAck}
	case wire.TDelete:
		if err := c.s.eng.DeleteCtx(ctx, routing.ObjectID(m.Object), m.Keys); err != nil {
			return c.errMsg(err)
		}
		return wire.Msg{Type: wire.TAck}
	case wire.TScan:
		if m.Limit > 0 {
			rows, err := c.s.eng.ScanRangeRowsCtx(ctx, routing.ObjectID(m.Object), m.Lo, m.Hi, m.Pred, int(m.Limit))
			if err != nil {
				return c.errMsg(err)
			}
			return wire.Msg{Type: wire.TResult, KVs: rows}
		}
		agg, err := c.s.eng.ScanRangeCtx(ctx, routing.ObjectID(m.Object), m.Lo, m.Hi, m.Pred)
		if err != nil {
			return c.errMsg(err)
		}
		return wire.Msg{Type: wire.TAgg, Matched: agg.Matched, Sum: agg.Sum}
	case wire.TColScan:
		agg, err := c.s.eng.ScanCtx(ctx, routing.ObjectID(m.Object), m.Pred)
		if err != nil {
			return c.errMsg(err)
		}
		return wire.Msg{Type: wire.TAgg, Matched: agg.Matched, Sum: agg.Sum}
	default:
		return c.errMsg(fmt.Errorf("server: unexpected %v request", m.Type))
	}
}

func (c *conn) errMsg(err error) wire.Msg {
	c.s.errors.Inc()
	return wire.Msg{Type: wire.TError, Err: err.Error(), Code: rejectCode(err)}
}

// rejectCode classifies an error into the wire reject code its TError
// carries: wire.CodeForErr, plus the engine's own deadline error, which
// the wire package does not know.
func rejectCode(err error) uint8 {
	if errors.Is(err, core.ErrDeadlineExceeded) {
		return wire.CodeDeadlineExceeded
	}
	return wire.CodeForErr(err)
}
