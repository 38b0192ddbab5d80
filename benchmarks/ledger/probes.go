package main

import (
	"sync"
	"time"

	"eris"
	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/mem"
	"eris/internal/numasim"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/topology"
	"eris/internal/wire"
)

// layer indexes the child spans a replay records.
type layer uint8

const (
	layCore layer = iota // the same operation issued in-process
	layWireEncodeReq
	layWireDecodeReq
	layWireEncodeResp
	layWireDecodeResp
	layCommandEncode
	layCommandDecode
	layRouting // Router.Owner over the operation's keys
	layStorage // stand-alone prefix tree or column partition
	numLayers
)

var layerNames = [numLayers]string{
	"core", "wire.encode_req", "wire.decode_req", "wire.encode_resp", "wire.decode_resp",
	"command.encode", "command.decode", "routing", "storage",
}

// probes are the stand-alone copies of engine layers that replays drive with
// the workload's own keys and predicates. They are built after the heap was
// measured and only for a traced run. The storage probes are not safe for
// concurrent use; mu serializes the two callers' replays on them.
type probes struct {
	router *routing.Router
	obj    routing.ObjectID

	mu      sync.Mutex
	tree    *prefixtree.Tree
	col     *colstore.Column
	colSnap int64

	loadNSPerKey float64
	bytesPerKey  float64
}

func newProbes(w workload, in *instance) (*probes, error) {
	topo, err := topology.ByName(in.opts.Machine)
	if err != nil {
		return nil, err
	}
	machine, err := numasim.New(topo, numasim.Config{})
	if err != nil {
		return nil, err
	}
	node := mem.NewSystem(machine).Node(0)
	p := &probes{router: in.db.Engine().Router(), obj: routing.ObjectID(in.tgt.obj)}
	if in.tgt.col == nil {
		return p, p.loadTree(machine, node, uint64(in.tuples), w.keyOf)
	}
	// One partition's worth of the column's values, scanned by one thread.
	perAEU := in.tuples / int64(in.opts.Workers)
	p.col = colstore.NewLocal(machine, colstore.Config{}, node)
	buf := make([]uint64, colBlockEntries)
	for base := int64(0); base < perAEU; base += int64(len(buf)) {
		for i := range buf {
			buf[i] = splitmix64(uint64(base+int64(i))) % colValueDomain
		}
		p.col.Append(0, buf)
	}
	p.colSnap = p.col.Snapshot()
	return p, nil
}

// loadTree fills the stand-alone tree with the workload's key population,
// through the same batch call and tree configuration the engine's loader
// uses, and times it.
func (p *probes) loadTree(machine *numasim.Machine, node *mem.Manager, n uint64, keyOf func(uint64) uint64) error {
	store, err := prefixtree.NewStore(machine, node, prefixtree.Config{PrefixBits: 8})
	if err != nil {
		return err
	}
	p.tree = prefixtree.NewTree(store.NewSession())
	const batch = 256
	kvs := make([]prefixtree.KV, 0, batch)
	t0 := time.Now()
	for i := uint64(0); i < n; i++ {
		kvs = append(kvs, prefixtree.KV{Key: keyOf(i), Value: preload(keyOf(i))})
		if len(kvs) == batch || i == n-1 {
			p.tree.UpsertBatch(0, kvs)
			kvs = kvs[:0]
		}
	}
	p.loadNSPerKey = float64(time.Since(t0).Nanoseconds()) / float64(n)
	p.bytesPerKey = float64(store.MemoryBytes()) / float64(n)
	return nil
}

// span is one record of the trace file. A root span (Parent 0) covers one
// operation as its caller saw it; the child spans of a replayed operation
// name the layer they timed. A replay runs after its operation returned, so
// a child's interval lies after its parent's, not inside it.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"` // operation kind (root) or layer (child)
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

const (
	spanRing   = 1 << 16 // most recent spans kept per caller
	maxReplays = 1 << 15 // replay durations kept per caller and layer
	wireProbes = 10_000  // wire codec probes cover the first messages only
)

// tracer is one caller's span ring, replay timings and codec scratch.
type tracer struct {
	p      *probes
	epoch  time.Time
	ring   []span
	next   uint64 // spans recorded so far
	idBase uint64
	every  int64 // one operation in every is replayed
	ops    int64

	dur          [numLayers][]int64 // replay durations per layer
	storageNS    [numOpKinds]int64  // storage probe time per operation kind
	storageKeys  [numOpKinds]int64  // keys (tuples, for a scan) those probes touched
	ownerKeys    int64              // keys the routing probes resolved
	ownerSink    uint32             // keeps the Owner calls from being optimised away
	reqBytes     int64
	respBytes    int64
	wireMessages int64

	frame  []byte
	msg    wire.Msg
	cbuf   []byte
	cmd    command.Command
	dec    command.Decoder
	values []uint64
	found  []bool
	replay op
}

func newTracer(p *probes, caller int) *tracer {
	t := &tracer{p: p, epoch: time.Now(), ring: make([]span, spanRing), idBase: uint64(caller+1) << 48, every: 64}
	for l := range t.dur {
		t.dur[l] = make([]int64, 0, maxReplays)
	}
	t.frame = make([]byte, 0, 4096)
	t.cbuf = make([]byte, 0, 4096)
	t.values = make([]uint64, batchKeys)
	t.found = make([]bool, batchKeys)
	t.replay.keys = make([]uint64, batchKeys)
	t.replay.kvs = make([]eris.KV, batchKeys)
	return t
}

// setRate picks the replay rate from the caller's own warm-up rate: one
// operation in 64, or one in 8 for a workload too slow to yield enough
// replays at that rate.
func (t *tracer) setRate(opsPerSec float64) {
	if opsPerSec < 500 {
		t.every = 8
	}
}

func (t *tracer) add(parent uint64, name string, start, end time.Time) uint64 {
	t.next++
	id := t.idBase | t.next
	t.ring[t.next%spanRing] = span{ID: id, Parent: parent, Name: name, StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch))}
	return id
}

// timed runs fn as a child span of parent and keeps its duration.
func (t *tracer) timed(parent uint64, l layer, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.add(parent, layerNames[l], t0, t1)
	d := t1.Sub(t0)
	if len(t.dur[l]) < maxReplays {
		t.dur[l] = append(t.dur[l], int64(d))
	}
	return d
}

// observe records the root span of a completed operation and, for one in
// every, replays it through the layer probes. It runs in the caller's
// goroutine after the operation's latency was taken.
func (t *tracer) observe(c *caller, t0, t1 time.Time) {
	root := t.add(0, opKindNames[c.o.kind], t0, t1)
	if t.ops++; t.ops%t.every != 0 {
		return
	}
	o := &c.o

	// The same operation in-process. Writes repeat the values the model
	// already recorded, so the replay leaves the model true. An embedded
	// workload's root span already is this call.
	if c.served {
		r := &t.replay
		r.kind, r.lo, r.hi, r.pred = o.kind, o.lo, o.hi, o.pred
		r.keys = append(r.keys[:0], o.keys...)
		r.kvs = append(r.kvs[:0], o.kvs...)
		t.timed(root, layCore, func() { c.tgt.embedded(r) })
		if t.wireMessages < wireProbes {
			t.wireMessages++
			t.probeWire(root, c, o)
		}
	} else if len(t.dur[layCore]) < maxReplays {
		t.dur[layCore] = append(t.dur[layCore], int64(t1.Sub(t0)))
	}

	t.probeCommand(root, o)
	if o.kind != opColScan {
		t.timed(root, layRouting, func() { t.probeOwner(o) })
	}
	t.p.mu.Lock()
	d := t.timed(root, layStorage, func() { t.probeStorage(o) })
	t.p.mu.Unlock()
	t.storageNS[o.kind] += int64(d)
	if o.kind == opColScan {
		t.storageKeys[o.kind] += t.p.col.Count() // the probe scans one partition
	} else {
		t.storageKeys[o.kind] += o.tuples(0)
	}
}

// probeWire encodes and decodes the request and the response this operation
// put on the connection, at the protocol version the client negotiated.
func (t *tracer) probeWire(root uint64, c *caller, o *op) {
	req := wire.Msg{Tag: 1, Object: c.tgt.obj}
	resp := wire.Msg{Tag: 1, Type: wire.TAck}
	switch o.kind {
	case opLookup:
		req.Type, req.Keys = wire.TLookup, o.keys
		resp.Type, resp.KVs = wire.TResult, o.got
	case opUpsert:
		req.Type, req.KVs = wire.TUpsert, o.kvs
	case opDelete:
		req.Type, req.Keys = wire.TDelete, o.keys
	case opScanRange:
		req.Type, req.Lo, req.Hi, req.Pred = wire.TScan, o.lo, o.hi, o.pred
		resp.Type, resp.Matched, resp.Sum = wire.TAgg, o.agg.Matched, o.agg.Sum
	case opColScan:
		req.Type, req.Pred = wire.TColScan, o.pred
		resp.Type, resp.Matched, resp.Sum = wire.TAgg, o.agg.Matched, o.agg.Sum
	}
	version := c.tgt.cl.Version()
	codec := func(m *wire.Msg, enc, dec layer) int64 {
		// Neither call can fail on a message the harness built itself.
		t.timed(root, enc, func() { t.frame, _ = wire.AppendFrameV(t.frame[:0], m, version) })
		t.timed(root, dec, func() { _ = wire.DecodeMsgV(&t.msg, t.frame[4:], version) })
		return int64(len(t.frame))
	}
	t.reqBytes += codec(&req, layWireEncodeReq, layWireDecodeReq)
	t.respBytes += codec(&resp, layWireEncodeResp, layWireDecodeResp)
}

// probeCommand encodes and decodes the routing command the operation turns
// into inside the engine.
func (t *tracer) probeCommand(root uint64, o *op) {
	cmd := command.Command{Object: uint32(t.p.obj), ReplyTo: command.NoReply, Tag: 1}
	switch o.kind {
	case opLookup:
		cmd.Op, cmd.Keys = command.OpLookup, o.keys
	case opUpsert:
		cmd.Op, cmd.KVs = command.OpUpsert, o.kvs
	case opDelete:
		cmd.Op, cmd.Keys = command.OpDelete, o.keys
	default:
		cmd.Op, cmd.Pred = command.OpScan, o.pred
		cmd.Keys = append(t.values[:0], o.lo, o.hi)
	}
	t.timed(root, layCommandEncode, func() { t.cbuf = cmd.AppendEncode(t.cbuf[:0]) })
	t.timed(root, layCommandDecode, func() { _, _ = t.dec.DecodeInto(&t.cmd, t.cbuf) })
}

func (t *tracer) probeOwner(o *op) {
	var acc uint32
	switch o.kind {
	case opUpsert:
		for _, kv := range o.kvs {
			acc += t.p.router.Owner(t.p.obj, kv.Key)
		}
		t.ownerKeys += int64(len(o.kvs))
	case opScanRange:
		acc = t.p.router.Owner(t.p.obj, o.lo) + t.p.router.Owner(t.p.obj, o.hi)
		t.ownerKeys += 2
	default:
		for _, k := range o.keys {
			acc += t.p.router.Owner(t.p.obj, k)
		}
		t.ownerKeys += int64(len(o.keys))
	}
	t.ownerSink += acc
}

func (t *tracer) probeStorage(o *op) {
	p := t.p
	switch o.kind {
	case opLookup:
		p.tree.LookupBatch(0, o.keys, t.values[:len(o.keys)], t.found[:len(o.keys)])
	case opUpsert:
		p.tree.UpsertBatch(0, o.kvs)
	case opDelete:
		p.tree.DeleteBatch(0, o.keys)
	case opScanRange:
		p.tree.Scan(0, o.lo, o.hi, func(_, _ uint64) bool { return true })
	case opColScan:
		p.col.ScanFiltered(0, p.colSnap, o.pred)
	}
}

// spans returns the ring's contents, oldest first.
func (t *tracer) spans() []span {
	n := t.next
	if n > spanRing {
		n = spanRing
	}
	out := make([]span, 0, n)
	for i := t.next - n + 1; i <= t.next; i++ {
		out = append(out, t.ring[i%spanRing])
	}
	return out
}

// attributionRow is one line of the per-layer table: the layer's share of
// the traced median latency. A residual is what is left of its parent after
// the probed children are taken out.
type attributionRow struct {
	Layer    string  `json:"layer"`
	SelfUS   float64 `json:"self_us"`
	Share    float64 `json:"share"`
	Residual bool    `json:"residual,omitempty"`
}

// attribute fills the probe-based per-layer metrics and splits the traced
// median latency into layers:
//
//	p50 = server.rpc_overhead_us + core.call_us_p50
//	core.call_us_p50 = routing + command + storage + core.handoff_us
//
// The two residuals are clamped at 0, so no layer shows negative self time;
// the wire codec's share is shown inside the rpc overhead it belongs to.
func (p *probes) attribute(m metricSet, cs []*caller, rootLat []int64, served bool) []attributionRow {
	var dur [numLayers][]int64
	var storageNS, keys [numOpKinds]int64
	var ownerKeys, reqBytes, respBytes, wireMessages int64
	for _, c := range cs {
		t := c.tr
		for l := range dur {
			dur[l] = append(dur[l], t.dur[l]...)
		}
		for k := range keys {
			storageNS[k] += t.storageNS[k]
			keys[k] += t.storageKeys[k]
		}
		ownerKeys += t.ownerKeys
		reqBytes += t.reqBytes
		respBytes += t.respBytes
		wireMessages += t.wireMessages
	}
	replays := len(dur[layStorage])
	m["trace.replays"] = float64(replays)
	var med [numLayers]float64 // ns
	for l := range dur {
		med[l] = p50(dur[l])
	}

	m["wire.encode_req_ns"], m["wire.decode_req_ns"] = med[layWireEncodeReq], med[layWireDecodeReq]
	m["wire.encode_resp_ns"], m["wire.decode_resp_ns"] = med[layWireEncodeResp], med[layWireDecodeResp]
	if wireMessages > 0 {
		m["wire.req_bytes"] = float64(reqBytes) / float64(wireMessages)
		m["wire.resp_bytes"] = float64(respBytes) / float64(wireMessages)
	}
	m["command.encode_ns"], m["command.decode_ns"] = med[layCommandEncode], med[layCommandDecode]
	if ownerKeys > 0 {
		var total int64
		for _, d := range dur[layRouting] {
			total += d
		}
		m["routing.owner_ns_per_key"] = float64(total) / float64(ownerKeys)
	}
	perKey := func(k opKind) float64 {
		if keys[k] == 0 {
			return 0
		}
		return float64(storageNS[k]) / float64(keys[k])
	}
	m["prefixtree.load_ns_per_key"] = p.loadNSPerKey
	m["prefixtree.bytes_per_key"] = p.bytesPerKey
	m["prefixtree.lookup_ns_per_key"] = perKey(opLookup)
	m["prefixtree.upsert_ns_per_key"] = perKey(opUpsert)
	m["prefixtree.delete_ns_per_key"] = perKey(opDelete)
	m["colstore.scan_ns_per_tuple"] = perKey(opColScan)

	rootP50 := percentile(rootLat, 0.5)
	m["trace.p50_us"] = rootP50 / 1e3
	m["core.call_us_p50"] = med[layCore] / 1e3
	m["core.call_us_p99"] = percentile(dur[layCore], 0.99) / 1e3 // p50 sorted it
	rpc := 0.0
	if served {
		rpc = max(0, rootP50-med[layCore])
	}
	cmdNS := med[layCommandEncode] + med[layCommandDecode]
	handoff := max(0, med[layCore]-med[layRouting]-cmdNS-med[layStorage])
	m["server.rpc_overhead_us"] = rpc / 1e3
	m["core.handoff_us"] = handoff / 1e3

	total := rpc + med[layCore]
	row := func(name string, ns float64, residual bool) attributionRow {
		r := attributionRow{Layer: name, SelfUS: ns / 1e3, Residual: residual}
		if total > 0 {
			r.Share = ns / total
		}
		return r
	}
	storage := "prefixtree"
	if p.col != nil {
		storage = "colstore"
	}
	wireNS := med[layWireEncodeReq] + med[layWireDecodeReq] + med[layWireEncodeResp] + med[layWireDecodeResp]
	return []attributionRow{
		row("server.rpc_overhead_us (client+server+tcp+wire)", rpc, true),
		row("  of which wire codec", wireNS, false),
		row("core.handoff_us (inject, pick-up, reply wake-up)", handoff, true),
		row("routing", med[layRouting], false),
		row("command", cmdNS, false),
		row(storage, med[layStorage], false),
	}
}
