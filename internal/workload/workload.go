// Package workload generates the key streams and schedules used by the
// paper's experiments: uniform keys over a dense domain (the static
// lookup/upsert benchmarks of Figure 8), Zipf-skewed keys, hot key ranges,
// and the dynamic schedule of Figure 13 (uniform for 10 s, then a drastic
// narrowing to half the domain, then four slight shifts of the hot range).
// All generators are deterministic given a seed and draw time from the
// simulated machine's virtual clocks, never the wall clock.
package workload

import (
	"fmt"
	"math/rand"
)

// KeyGen produces keys of a workload.
type KeyGen interface {
	// Key returns the next key; tSec is the issuing worker's virtual time
	// in seconds, which dynamic workloads use to pick their phase.
	Key(rng *rand.Rand, tSec float64) uint64
}

// Uniform draws keys uniformly from [0, Domain).
type Uniform struct {
	Domain uint64
}

// Key implements KeyGen.
func (u Uniform) Key(rng *rand.Rand, _ float64) uint64 {
	return uint64(rng.Int63n(int64(u.Domain)))
}

// HotRange draws keys uniformly from [Lo, Hi).
type HotRange struct {
	Lo, Hi uint64
}

// Key implements KeyGen.
func (h HotRange) Key(rng *rand.Rand, _ float64) uint64 {
	return h.Lo + uint64(rng.Int63n(int64(h.Hi-h.Lo)))
}

// Zipf draws keys with a Zipf distribution over [0, Domain); S and V are
// the rand.Zipf parameters (S > 1).
type Zipf struct {
	Domain uint64
	S, V   float64
	zipf   *rand.Zipf
}

// NewZipf builds a Zipf generator; the underlying rand.Zipf is bound to rng.
func NewZipf(rng *rand.Rand, domain uint64, s, v float64) *Zipf {
	return &Zipf{Domain: domain, S: s, V: v, zipf: rand.NewZipf(rng, s, v, domain-1)}
}

// Key implements KeyGen. The rng argument is ignored (rand.Zipf captures
// its source at construction).
func (z *Zipf) Key(_ *rand.Rand, _ float64) uint64 {
	return z.zipf.Uint64()
}

// Phase is one segment of a dynamic schedule: from Start (seconds of
// virtual time) on, keys are drawn from [Lo, Hi).
type Phase struct {
	Start  float64
	Lo, Hi uint64
}

// Schedule is a phase-switching hot-range workload.
type Schedule struct {
	Phases []Phase
}

// Validate checks monotonicity and non-empty ranges.
func (s *Schedule) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: empty schedule")
	}
	for i, p := range s.Phases {
		if p.Hi <= p.Lo {
			return fmt.Errorf("workload: phase %d has empty range [%d,%d)", i, p.Lo, p.Hi)
		}
		if i > 0 && p.Start <= s.Phases[i-1].Start {
			return fmt.Errorf("workload: phase %d start %.2f not increasing", i, p.Start)
		}
	}
	if s.Phases[0].Start != 0 {
		return fmt.Errorf("workload: first phase must start at 0")
	}
	return nil
}

// PhaseAt returns the active phase index at tSec.
func (s *Schedule) PhaseAt(tSec float64) int {
	i := 0
	for i+1 < len(s.Phases) && s.Phases[i+1].Start <= tSec {
		i++
	}
	return i
}

// RangeAt returns the active key range at tSec.
func (s *Schedule) RangeAt(tSec float64) (lo, hi uint64) {
	p := s.Phases[s.PhaseAt(tSec)]
	return p.Lo, p.Hi
}

// Key implements KeyGen.
func (s *Schedule) Key(rng *rand.Rand, tSec float64) uint64 {
	lo, hi := s.RangeAt(tSec)
	return lo + uint64(rng.Int63n(int64(hi-lo)))
}

// End returns the start time of the last phase (experiments typically run
// some tail beyond it).
func (s *Schedule) End() float64 { return s.Phases[len(s.Phases)-1].Start }

// Fig13Schedule reproduces the dynamic workload of Figure 13, scaled to an
// arbitrary key domain: 10 s of uniform access to the full domain, then a
// drastic change to the middle half ([domain/4, 3*domain/4)), then four
// slight changes, each shifting the hot range left by domain/64 (the
// paper's 8 M of 512 M keys) every 20 s.
func Fig13Schedule(domain uint64) *Schedule {
	quarter := domain / 4
	shift := domain / 64
	s := &Schedule{Phases: []Phase{
		{Start: 0, Lo: 0, Hi: domain},
		{Start: 10, Lo: quarter, Hi: 3 * quarter},
	}}
	for i := 1; i <= 4; i++ {
		s.Phases = append(s.Phases, Phase{
			Start: 10 + 20*float64(i),
			Lo:    quarter - uint64(i)*shift,
			Hi:    3*quarter - uint64(i)*shift,
		})
	}
	return s
}

// FillBatch fills keys from the generator.
func FillBatch(gen KeyGen, rng *rand.Rand, tSec float64, keys []uint64) {
	for i := range keys {
		keys[i] = gen.Key(rng, tSec)
	}
}
