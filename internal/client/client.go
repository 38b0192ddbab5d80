// Package client is the Go client for the eriswire protocol
// (internal/wire): a connection-pooled, pipelining front end to an
// internal/server instance. Every synchronous call tags its request,
// writes the frame and parks on a per-tag channel; a single reader
// goroutine per connection dispatches responses by tag, so any number of
// goroutines can keep batches in flight on one connection and responses
// may return in any order.
//
// Calls take per-request deadlines from their context; the deadline rides
// the request frame so the server can shed work that cannot finish in
// time. A server rejection with wire.ErrOverloaded is retried with capped
// exponential backoff (the server sheds before executing, so retrying is
// always safe, including for writes); wire.ErrDeadlineExceeded and
// context expiry are surfaced as-is for the caller to decide.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"eris/internal/colstore"
	"eris/internal/metrics"
	"eris/internal/prefixtree"
	"eris/internal/wire"
)

// ErrClosed is returned for calls on a closed client (or one whose
// connection died; the pending calls fail with the transport error).
var ErrClosed = errors.New("client: connection closed")

// retryCapIntervals caps the exponential overload backoff at this many
// base intervals (the same shape as the balancer's fail-soft retry).
const retryCapIntervals = 16

// dialTimeout bounds the TCP connect and the handshake.
const dialTimeout = 5 * time.Second

// Options tunes a client connection.
type Options struct {
	// OverloadRetries is how many times a call rejected with
	// wire.ErrOverloaded is retried before the error is returned
	// (default 3; negative disables retry). Shed requests were never
	// executed, so retrying writes is safe.
	OverloadRetries int
	// RetryBackoff is the base of the capped exponential backoff between
	// overload retries (default 500µs; the cap is 16× the base).
	RetryBackoff time.Duration
	// Metrics, when non-nil, receives client.* counters; a pool's
	// connections share the registry passed to NewPool.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.OverloadRetries == 0 {
		o.OverloadRetries = 3
	} else if o.OverloadRetries < 0 {
		o.OverloadRetries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 500 * time.Microsecond
	}
	return o
}

// Client is one protocol connection. All methods are safe for concurrent
// use; concurrent calls pipeline onto the single connection.
type Client struct {
	nc      net.Conn
	objects []wire.ObjectInfo
	byName  map[string]wire.ObjectInfo
	opts    Options

	wmu     sync.Mutex // serializes frame writes
	bw      *bufio.Writer
	enc     []byte // write-side encode scratch, guarded by wmu
	nextTag uint64 // guarded by wmu

	mu      sync.Mutex
	pending map[uint64]chan wire.Msg
	err     error // terminal transport error; set once, then all calls fail
	closed  bool

	requests   *metrics.Counter
	errsCtr    *metrics.Counter
	connErrs   *metrics.Counter
	timeouts   *metrics.Counter // calls abandoned on a local deadline
	retries    *metrics.Counter // overload retries performed
	overloaded *metrics.Counter // ErrOverloaded results (before retry)
	readerEnd  sync.WaitGroup
}

// Dial connects, performs the handshake and starts the reader. A server
// whose Welcome names any version other than wire.Version is refused.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	nc.SetDeadline(time.Now().Add(dialTimeout))
	hello := wire.Msg{Type: wire.THello, Magic: wire.Magic, Version: wire.Version}
	frame, err := wire.AppendFrameV(nil, &hello, wire.Version)
	if err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := nc.Write(frame); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake write: %w", err)
	}
	br := bufio.NewReader(nc)
	var welcome wire.Msg
	if _, err := wire.ReadMsgV(br, &welcome, nil, wire.Version); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake read: %w", err)
	}
	if welcome.Type != wire.TWelcome {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: unexpected %v", welcome.Type)
	}
	if welcome.Version != wire.Version {
		nc.Close()
		return nil, fmt.Errorf("client: server speaks version %d: %w", welcome.Version, wire.ErrVersion)
	}
	nc.SetDeadline(time.Time{})

	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Client{
		nc:         nc,
		objects:    welcome.Objects,
		byName:     make(map[string]wire.ObjectInfo, len(welcome.Objects)),
		opts:       opts,
		bw:         bufio.NewWriter(nc),
		pending:    make(map[uint64]chan wire.Msg),
		requests:   reg.Counter("client.requests"),
		errsCtr:    reg.Counter("client.errors"),
		connErrs:   reg.Counter("client.conn_errors"),
		timeouts:   reg.Counter("client.timeouts"),
		retries:    reg.Counter("client.retries"),
		overloaded: reg.Counter("client.overloaded"),
	}
	for _, o := range welcome.Objects {
		c.byName[o.Name] = o
	}
	c.readerEnd.Add(1)
	go c.readLoop(br)
	return c, nil
}

// Objects returns the server's object table from the handshake.
func (c *Client) Objects() []wire.ObjectInfo { return c.objects }

// Object resolves an object by name.
func (c *Client) Object(name string) (wire.ObjectInfo, bool) {
	o, ok := c.byName[name]
	return o, ok
}

// Version returns the connection's protocol version, which Dial checked
// is wire.Version.
func (c *Client) Version() uint16 { return wire.Version }

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.nc.Close()
	c.readerEnd.Wait()
	return nil
}

// readLoop dispatches responses to the per-tag channels until the
// connection ends; it then fails every pending call. It reads through br,
// the buffered reader the handshake used, which may already hold bytes.
func (c *Client) readLoop(br *bufio.Reader) {
	defer c.readerEnd.Done()
	var buf []byte
	for {
		var m wire.Msg
		var err error
		if buf, err = wire.ReadMsgV(br, &m, buf, wire.Version); err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[m.Tag]
		delete(c.pending, m.Tag)
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// fail marks the connection dead and unblocks every pending call.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		if c.closed {
			c.err = ErrClosed
		} else {
			c.err = fmt.Errorf("client: connection lost: %w", err)
			c.connErrs.Inc()
		}
	}
	pend := c.pending
	c.pending = make(map[uint64]chan wire.Msg)
	c.mu.Unlock()
	c.nc.Close()
	for _, ch := range pend {
		close(ch) // a closed channel yields the zero Msg: call sees c.err
	}
}

// do runs one call with the context's deadline and the overload retry
// policy. Every retry re-sends under a fresh tag but shares the original
// deadline — the backoff never extends a call past what the caller asked
// for.
func (c *Client) do(ctx context.Context, req *wire.Msg) (wire.Msg, error) {
	deadline, hasDeadline := ctx.Deadline()
	for attempt := 0; ; attempt++ {
		m, err := c.roundTrip(ctx, req, deadline, hasDeadline)
		if err == nil || !errors.Is(err, wire.ErrOverloaded) {
			return m, err
		}
		c.overloaded.Inc()
		if attempt >= c.opts.OverloadRetries {
			return wire.Msg{}, err
		}
		wait := backoffFor(c.opts.RetryBackoff, attempt)
		if hasDeadline && time.Now().Add(wait).After(deadline) {
			// The backoff would outlive the deadline: the retry cannot
			// possibly succeed in time, report the timeout now.
			c.timeouts.Inc()
			return wire.Msg{}, fmt.Errorf("client: %w", wire.ErrDeadlineExceeded)
		}
		c.retries.Inc()
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return wire.Msg{}, ctx.Err()
		}
	}
}

// backoffFor returns the capped exponential backoff preceding overload
// retry attempt (0-based: the wait before the first retry is the base).
// Doubling stops the moment the cap is reached instead of shifting
// blindly, so a raised OverloadRetries can never overflow the backoff
// into a negative or absurd sleep — `base << attempt` goes negative past
// attempt ~34 for the default base, which used to slip under the clamp
// and turn the backoff into a zero-wait retry storm that also bypassed
// the deadline-crossing check.
func backoffFor(base time.Duration, attempt int) time.Duration {
	maxWait := base * retryCapIntervals
	if maxWait < base {
		// The cap itself overflowed (absurd configured base): the base is
		// already beyond any useful wait, use it as its own cap.
		maxWait = base
	}
	wait := base
	for i := 0; i < attempt; i++ {
		wait <<= 1
		if wait >= maxWait || wait <= 0 {
			return maxWait
		}
	}
	return wait
}

// roundTrip sends one tagged request and waits for its response, the
// context's cancellation or the call deadline, whichever is first. The
// remaining deadline is stamped onto the frame so the server can shed the
// request when it cannot be served in time.
func (c *Client) roundTrip(ctx context.Context, req *wire.Msg, deadline time.Time, hasDeadline bool) (wire.Msg, error) {
	req.DeadlineUS = 0
	var expire <-chan time.Time
	if hasDeadline {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			c.timeouts.Inc()
			return wire.Msg{}, fmt.Errorf("client: %w", wire.ErrDeadlineExceeded)
		}
		us := remaining.Microseconds()
		if us < 1 {
			us = 1
		}
		if us > math.MaxUint32 {
			us = math.MaxUint32
		}
		req.DeadlineUS = uint32(us)
		t := time.NewTimer(remaining)
		defer t.Stop()
		expire = t.C
	}

	// Encode before the tag is registered: a request that cannot be framed
	// fails alone, and the connection keeps serving every other call.
	ch := make(chan wire.Msg, 1)
	c.wmu.Lock()
	c.nextTag++
	req.Tag = c.nextTag
	enc, err := wire.AppendFrameV(c.enc[:0], req, wire.Version)
	if err != nil {
		c.wmu.Unlock()
		return wire.Msg{}, fmt.Errorf("client: %v request: %w", req.Type, err)
	}
	c.enc = enc
	c.mu.Lock()
	if err = c.err; err == nil && c.closed {
		err = ErrClosed
	}
	if err == nil {
		c.pending[req.Tag] = ch
	}
	c.mu.Unlock()
	if err != nil {
		c.wmu.Unlock()
		return wire.Msg{}, err
	}
	c.requests.Inc()
	_, err = c.bw.Write(enc)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}

	select {
	case m, ok := <-ch:
		if !ok {
			// fail set c.err before it closed the channel.
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return wire.Msg{}, err
		}
		if m.Type == wire.TError {
			c.errsCtr.Inc()
			return wire.Msg{}, fmt.Errorf("client: server error: %w", wire.ErrFromMsg(&m))
		}
		return m, nil
	case <-expire:
		c.abandon(req.Tag)
		c.timeouts.Inc()
		return wire.Msg{}, fmt.Errorf("client: %w", wire.ErrDeadlineExceeded)
	case <-ctx.Done():
		c.abandon(req.Tag)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			c.timeouts.Inc()
			return wire.Msg{}, fmt.Errorf("client: %w", wire.ErrDeadlineExceeded)
		}
		return wire.Msg{}, ctx.Err()
	}
}

// abandon drops a pending tag whose caller gave up; a late response for
// it is discarded by the read loop.
func (c *Client) abandon(tag uint64) {
	c.mu.Lock()
	delete(c.pending, tag)
	c.mu.Unlock()
}

func (c *Client) expect(ctx context.Context, req *wire.Msg, want wire.Type) (wire.Msg, error) {
	m, err := c.do(ctx, req)
	if err != nil {
		return m, err
	}
	if m.Type != want {
		err := fmt.Errorf("client: unexpected %v response to %v", m.Type, req.Type)
		c.fail(err)
		return wire.Msg{}, err
	}
	return m, nil
}

// Lookup returns the found pairs for a batch of keys, sorted by key.
func (c *Client) Lookup(object uint32, keys []uint64) ([]prefixtree.KV, error) {
	return c.LookupCtx(context.Background(), object, keys)
}

// LookupCtx is Lookup bounded by the context's deadline.
func (c *Client) LookupCtx(ctx context.Context, object uint32, keys []uint64) ([]prefixtree.KV, error) {
	m, err := c.expect(ctx, &wire.Msg{Type: wire.TLookup, Object: object, Keys: keys}, wire.TResult)
	if err != nil {
		return nil, err
	}
	return m.KVs, nil
}

// Upsert writes a batch of pairs; a nil error means the engine applied it.
func (c *Client) Upsert(object uint32, kvs []prefixtree.KV) error {
	return c.UpsertCtx(context.Background(), object, kvs)
}

// UpsertCtx is Upsert bounded by the context's deadline.
func (c *Client) UpsertCtx(ctx context.Context, object uint32, kvs []prefixtree.KV) error {
	_, err := c.expect(ctx, &wire.Msg{Type: wire.TUpsert, Object: object, KVs: kvs}, wire.TAck)
	return err
}

// Delete removes a batch of keys.
func (c *Client) Delete(object uint32, keys []uint64) error {
	return c.DeleteCtx(context.Background(), object, keys)
}

// DeleteCtx is Delete bounded by the context's deadline.
func (c *Client) DeleteCtx(ctx context.Context, object uint32, keys []uint64) error {
	_, err := c.expect(ctx, &wire.Msg{Type: wire.TDelete, Object: object, Keys: keys}, wire.TAck)
	return err
}

// ScanAggregate mirrors core.ScanAggregate on the wire.
type ScanAggregate struct {
	Matched uint64
	Sum     uint64
}

// ScanRange aggregates index values in [lo, hi] matching pred.
func (c *Client) ScanRange(object uint32, lo, hi uint64, pred colstore.Predicate) (ScanAggregate, error) {
	return c.ScanRangeCtx(context.Background(), object, lo, hi, pred)
}

// ScanRangeCtx is ScanRange bounded by the context's deadline.
func (c *Client) ScanRangeCtx(ctx context.Context, object uint32, lo, hi uint64, pred colstore.Predicate) (ScanAggregate, error) {
	m, err := c.expect(ctx, &wire.Msg{Type: wire.TScan, Object: object, Lo: lo, Hi: hi, Pred: pred}, wire.TAgg)
	if err != nil {
		return ScanAggregate{}, err
	}
	return ScanAggregate{Matched: m.Matched, Sum: m.Sum}, nil
}

// ScanRows materializes up to limit matching rows of [lo, hi], sorted;
// limit must lie in 1..wire.MaxRows, the most one answer frame carries.
func (c *Client) ScanRows(object uint32, lo, hi uint64, pred colstore.Predicate, limit int) ([]prefixtree.KV, error) {
	return c.ScanRowsCtx(context.Background(), object, lo, hi, pred, limit)
}

// ScanRowsCtx is ScanRows bounded by the context's deadline.
func (c *Client) ScanRowsCtx(ctx context.Context, object uint32, lo, hi uint64, pred colstore.Predicate, limit int) ([]prefixtree.KV, error) {
	if limit <= 0 || limit > wire.MaxRows {
		return nil, fmt.Errorf("client: ScanRows limit %d outside 1..%d", limit, wire.MaxRows)
	}
	m, err := c.expect(ctx, &wire.Msg{Type: wire.TScan, Object: object, Lo: lo, Hi: hi, Pred: pred, Limit: uint32(limit)}, wire.TResult)
	if err != nil {
		return nil, err
	}
	return m.KVs, nil
}

// ColScan aggregates a column object's values matching pred.
func (c *Client) ColScan(object uint32, pred colstore.Predicate) (ScanAggregate, error) {
	return c.ColScanCtx(context.Background(), object, pred)
}

// ColScanCtx is ColScan bounded by the context's deadline.
func (c *Client) ColScanCtx(ctx context.Context, object uint32, pred colstore.Predicate) (ScanAggregate, error) {
	m, err := c.expect(ctx, &wire.Msg{Type: wire.TColScan, Object: object, Pred: pred}, wire.TAgg)
	if err != nil {
		return ScanAggregate{}, err
	}
	return ScanAggregate{Matched: m.Matched, Sum: m.Sum}, nil
}

// Pool is a fixed-size pool of client connections to one server; Get hands
// them out round-robin. Use one pool per process and let concurrent
// goroutines share connections — each connection pipelines.
type Pool struct {
	clients []*Client
	next    uint64
	mu      sync.Mutex
}

// NewPool dials size connections to addr. On error, already-dialed
// connections are closed.
func NewPool(addr string, size int, opts Options) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	p := &Pool{clients: make([]*Client, 0, size)}
	for i := 0; i < size; i++ {
		c, err := Dial(addr, opts)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// Get returns a pooled connection (round-robin).
func (p *Pool) Get() *Client {
	p.mu.Lock()
	c := p.clients[p.next%uint64(len(p.clients))]
	p.next++
	p.mu.Unlock()
	return c
}

// Size returns the number of pooled connections.
func (p *Pool) Size() int { return len(p.clients) }

// Close closes every pooled connection.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
