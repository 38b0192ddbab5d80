package core

import (
	"eris/internal/aeu"
	"eris/internal/colstore"
	"eris/internal/command"
	"eris/internal/prefixtree"
	"eris/internal/routing"
	"eris/internal/workload"
)

// The generators in this file implement the paper's benchmark workloads as
// AEU generation-stage hooks: every AEU produces data commands against the
// whole key domain and routes them through the outgoing buffers, exactly as
// the evaluation section describes ("keys to upsert or lookup are evenly
// distributed across the key domain").

// LookupGenerator routes batches of lookups drawn from a key generator
// until the AEU's virtual clock has advanced DurationSec past its first
// call.
type LookupGenerator struct {
	Object      routing.ObjectID
	Keys        workload.KeyGen
	Batch       int     // keys per generated command batch, default 64
	PerLoop     int     // batches per loop iteration, default 16
	DurationSec float64 // generation window in virtual seconds

	startNS float64
	started bool
	buf     []uint64
}

// Generate implements aeu.Generator.
func (g *LookupGenerator) Generate(a *aeu.AEU) bool {
	if !g.started {
		g.started = true
		g.startNS = a.ClockNS()
		if g.Batch == 0 {
			g.Batch = 64
		}
		if g.PerLoop == 0 {
			g.PerLoop = 16
		}
		// One large batch per loop: the router splits it into one
		// multi-key command per owner, amortizing command headers and
		// flushes the way the paper's grouped data segments do.
		g.buf = make([]uint64, g.Batch*g.PerLoop)
	}
	elapsed := (a.ClockNS() - g.startNS) / 1e9
	if elapsed >= g.DurationSec {
		return false
	}
	workload.FillBatch(g.Keys, a.Rng, elapsed, g.buf)
	a.Outbox().RouteLookup(g.Object, g.buf, command.NoReply, 0, 0)
	return true
}

// UpsertGenerator routes batches of upserts (random keys, identity values)
// for a virtual duration.
type UpsertGenerator struct {
	Object      routing.ObjectID
	Keys        workload.KeyGen
	Batch       int
	PerLoop     int
	DurationSec float64

	startNS float64
	started bool
	buf     []prefixtree.KV
	keys    []uint64
}

// Generate implements aeu.Generator.
func (g *UpsertGenerator) Generate(a *aeu.AEU) bool {
	if !g.started {
		g.started = true
		g.startNS = a.ClockNS()
		if g.Batch == 0 {
			g.Batch = 64
		}
		if g.PerLoop == 0 {
			g.PerLoop = 16
		}
		g.buf = make([]prefixtree.KV, g.Batch*g.PerLoop)
		g.keys = make([]uint64, g.Batch*g.PerLoop)
	}
	elapsed := (a.ClockNS() - g.startNS) / 1e9
	if elapsed >= g.DurationSec {
		return false
	}
	workload.FillBatch(g.Keys, a.Rng, elapsed, g.keys)
	for i, k := range g.keys {
		g.buf[i] = prefixtree.KV{Key: k, Value: k}
	}
	a.Outbox().RouteUpsert(g.Object, g.buf, command.NoReply, 0, 0)
	return true
}

// ScanGenerator multicasts repeated full scans of a column, keeping a
// bounded window of scans in flight: the window paces issuance to the scan
// rate (the paper scans the column "repeatedly", not in an unbounded
// flood), while its depth lets the multicast reference buffers batch
// several scans per flush and lets receivers fold them into shared passes.
type ScanGenerator struct {
	Object      routing.ObjectID
	Pred        colstore.Predicate
	Inflight    int // outstanding scans, default 8
	DurationSec float64

	startNS float64
	started bool
	issued  int64
	opsBase int64
}

// Generate implements aeu.Generator.
func (g *ScanGenerator) Generate(a *aeu.AEU) bool {
	if !g.started {
		g.started = true
		g.startNS = a.ClockNS()
		g.opsBase = a.Stats().Ops
		if g.Inflight == 0 {
			g.Inflight = 32
		}
	}
	if (a.ClockNS()-g.startNS)/1e9 >= g.DurationSec {
		return false
	}
	// The issuer serves its own partition too, so its completed scan ops
	// track overall progress. Refill the window in full bursts: issuing
	// Inflight scans in one loop lets every target's multicast reference
	// buffer carry the whole burst in a single flush, and receivers fold
	// the burst into one shared pass.
	completed := a.Stats().Ops - g.opsBase
	if g.issued <= completed {
		for i := 0; i < g.Inflight; i++ {
			a.Outbox().RouteScan(g.Object, g.Pred, command.NoReply, 0)
			g.issued++
		}
	}
	return true
}

// SelfScanGenerator sustains a full-bandwidth scan benchmark: every AEU
// repeatedly scans its own column partition, as the steady state of a
// long-running analytical scan looks once the (one-off) scan command has
// been multicast. At the paper's data sizes one pass over a partition takes
// milliseconds and the per-pass command routing is negligible; at the
// scaled-down sizes it would dominate, so the sustained phase is modeled
// directly (the multicast path itself is exercised by ScanGenerator, the
// engine's Scan client API and the examples).
type SelfScanGenerator struct {
	Object      routing.ObjectID
	Pred        colstore.Predicate
	DurationSec float64

	startNS float64
	started bool
}

// Generate implements aeu.Generator.
func (g *SelfScanGenerator) Generate(a *aeu.AEU) bool {
	if !g.started {
		g.started = true
		g.startNS = a.ClockNS()
	}
	if (a.ClockNS()-g.startNS)/1e9 >= g.DurationSec {
		return false
	}
	p := a.Partition(g.Object)
	if p == nil || p.Col == nil {
		return false
	}
	res := p.Col.ScanFiltered(a.Core, p.Col.Snapshot(), g.Pred)
	a.CountColScanBlocks(res)
	a.CountOps(1)
	return true
}

// RawRoutingGenerator drives the Figure 5 routing-throughput experiment:
// AEUs route many small per-call lookup batches, so each target receives a
// stream of *individual* data commands per loop and the outgoing buffer
// capacity decides how many of them one flush carries. Against an empty
// index the receivers' processing stage degenerates to a nil-root miss
// ("raw routing"); against a loaded index the lookups dominate.
type RawRoutingGenerator struct {
	Object      routing.ObjectID
	Domain      uint64
	Batch       int
	PerLoop     int
	DurationSec float64

	startNS float64
	started bool
	buf     []uint64
}

// Generate implements aeu.Generator.
func (g *RawRoutingGenerator) Generate(a *aeu.AEU) bool {
	if !g.started {
		g.started = true
		g.startNS = a.ClockNS()
		if g.Batch == 0 {
			g.Batch = 64
		}
		if g.PerLoop == 0 {
			g.PerLoop = 16
		}
		g.buf = make([]uint64, g.Batch)
	}
	if (a.ClockNS()-g.startNS)/1e9 >= g.DurationSec {
		return false
	}
	// Deliberately many separate calls: each produces one command per
	// owner, the command stream that the outgoing buffers exist to batch.
	for b := 0; b < g.PerLoop; b++ {
		for i := range g.buf {
			g.buf[i] = uint64(a.Rng.Int63n(int64(g.Domain)))
		}
		a.Outbox().RouteLookup(g.Object, g.buf, command.NoReply, 0, 0)
	}
	return true
}

// DynamicLookupGenerator drives the Figure 13 experiment: lookups whose hot
// range follows a workload schedule in virtual time.
type DynamicLookupGenerator struct {
	Object      routing.ObjectID
	Schedule    *workload.Schedule
	Batch       int
	PerLoop     int
	DurationSec float64

	startNS float64
	started bool
	buf     []uint64
}

// Generate implements aeu.Generator.
func (g *DynamicLookupGenerator) Generate(a *aeu.AEU) bool {
	if !g.started {
		g.started = true
		g.startNS = a.ClockNS()
		if g.Batch == 0 {
			g.Batch = 64
		}
		if g.PerLoop == 0 {
			g.PerLoop = 8
		}
		g.buf = make([]uint64, g.Batch*g.PerLoop)
	}
	elapsed := (a.ClockNS() - g.startNS) / 1e9
	if elapsed >= g.DurationSec {
		return false
	}
	workload.FillBatch(g.Schedule, a.Rng, elapsed, g.buf)
	a.Outbox().RouteLookup(g.Object, g.buf, command.NoReply, 0, 0)
	return true
}
