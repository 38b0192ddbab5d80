package numasim

import (
	"fmt"

	"eris/internal/topology"
)

// Epoch is a measurement window. It snapshots every virtual clock and byte
// counter at StartEpoch; its methods report the deltas accumulated since,
// with the roofline correction applied to the duration.
type Epoch struct {
	m          *Machine
	clocks0    []int64
	ops0       []int64
	link0      []int64
	mc0        []int64
	cacheStats bool
}

// StartEpoch opens a measurement window.
func (m *Machine) StartEpoch() *Epoch {
	e := &Epoch{
		m:       m,
		clocks0: make([]int64, len(m.cores)),
		ops0:    make([]int64, len(m.cores)),
		link0:   make([]int64, len(m.linkBytes)),
		mc0:     make([]int64, len(m.mcBytes)),
	}
	for i := range m.cores {
		e.clocks0[i] = m.cores[i].clock.Load()
		e.ops0[i] = m.cores[i].ops.Load()
	}
	for i := range m.linkBytes {
		e.link0[i] = m.linkBytes[i].Load()
	}
	for i := range m.mcBytes {
		e.mc0[i] = m.mcBytes[i].Load()
	}
	return e
}

// CoreSeconds returns the largest virtual clock advance of any core, in
// seconds (the latency-side duration bound).
func (e *Epoch) CoreSeconds() float64 {
	var max int64
	for i := range e.m.cores {
		if d := e.m.cores[i].clock.Load() - e.clocks0[i]; d > max {
			max = d
		}
	}
	return float64(max) / 1e12
}

// LinkBytes returns the byte delta of link l.
func (e *Epoch) LinkBytes(l topology.LinkID) int64 {
	return e.m.linkBytes[l].Load() - e.link0[l]
}

// TotalLinkBytes sums traffic over all interconnect links.
func (e *Epoch) TotalLinkBytes() int64 {
	var sum int64
	for i := range e.m.linkBytes {
		sum += e.m.linkBytes[i].Load() - e.link0[i]
	}
	return sum
}

// MCBytes returns the memory-controller byte delta of node n.
func (e *Epoch) MCBytes(n topology.NodeID) int64 {
	return e.m.mcBytes[n].Load() - e.mc0[n]
}

// TotalMCBytes sums traffic over all memory controllers.
func (e *Epoch) TotalMCBytes() int64 {
	var sum int64
	for i := range e.m.mcBytes {
		sum += e.m.mcBytes[i].Load() - e.mc0[i]
	}
	return sum
}

// Duration returns the modeled wall-clock length of the epoch in seconds:
// the maximum of the slowest core's clock advance and every resource's
// roofline bound (bytes moved / capacity).
func (e *Epoch) Duration() float64 {
	dur := e.CoreSeconds()
	topo := e.m.topo
	for i := range e.m.linkBytes {
		if t := float64(e.LinkBytes(topo.Links[i].ID)) / (topo.Links[i].Capacity * 1e9); t > dur {
			dur = t
		}
	}
	for i := range e.m.mcBytes {
		if t := float64(e.MCBytes(topology.NodeID(i))) / (topo.Nodes[i].LocalBandwidth * 1e9); t > dur {
			dur = t
		}
	}
	return dur
}

// Ops returns the number of completed operations counted via CountOps.
func (e *Epoch) Ops() int64 {
	var sum int64
	for i := range e.m.cores {
		sum += e.m.cores[i].ops.Load() - e.ops0[i]
	}
	return sum
}

// Throughput returns operations per modeled second.
func (e *Epoch) Throughput() float64 {
	d := e.Duration()
	if d == 0 {
		return 0
	}
	return float64(e.Ops()) / d
}

// MCBandwidthGBs returns the aggregate memory-controller transfer rate over
// the epoch in GB/s (the paper's Figure 12 "memory controller" bars).
func (e *Epoch) MCBandwidthGBs() float64 {
	d := e.Duration()
	if d == 0 {
		return 0
	}
	return float64(e.TotalMCBytes()) / d / 1e9
}

// LinkBandwidthGBs returns the aggregate interconnect transfer rate over the
// epoch in GB/s (the paper's Figure 12 "link" bars).
func (e *Epoch) LinkBandwidthGBs() float64 {
	d := e.Duration()
	if d == 0 {
		return 0
	}
	return float64(e.TotalLinkBytes()) / d / 1e9
}

// BoundBy reports which resource bounds the epoch's duration: "core" when
// the latency-side clock dominates, otherwise the name of the saturated
// link or memory controller.
func (e *Epoch) BoundBy() string {
	best, what := e.CoreSeconds(), "core"
	topo := e.m.topo
	for i := range e.m.linkBytes {
		if t := float64(e.LinkBytes(topo.Links[i].ID)) / (topo.Links[i].Capacity * 1e9); t > best {
			best = t
			what = fmt.Sprintf("link %d (%s %d-%d)", i, topo.Links[i].Class, topo.Links[i].A, topo.Links[i].B)
		}
	}
	for i := range e.m.mcBytes {
		if t := float64(e.MCBytes(topology.NodeID(i))) / (topo.Nodes[i].LocalBandwidth * 1e9); t > best {
			best = t
			what = fmt.Sprintf("memory controller of node %d", i)
		}
	}
	return what
}
