package workload

import (
	"math/rand"
	"testing"
)

func TestUniformStaysInDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Uniform{Domain: 1000}
	for i := 0; i < 10000; i++ {
		if k := g.Key(rng, 0); k >= 1000 {
			t.Fatalf("key %d out of domain", k)
		}
	}
}

func TestHotRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := HotRange{Lo: 100, Hi: 200}
	for i := 0; i < 10000; i++ {
		if k := g.Key(rng, 0); k < 100 || k >= 200 {
			t.Fatalf("key %d outside hot range", k)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := NewZipf(rng, 1000, 1.2, 1)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[g.Key(nil, 0)]++
	}
	if counts[0] < counts[500]*10 {
		t.Errorf("zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
}

func TestFig13Schedule(t *testing.T) {
	const domain = 512 << 20
	s := Fig13Schedule(domain)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Phases) != 6 {
		t.Fatalf("%d phases, want 6", len(s.Phases))
	}
	// Phase 0: full domain.
	if lo, hi := s.RangeAt(5); lo != 0 || hi != domain {
		t.Errorf("phase 0: [%d,%d)", lo, hi)
	}
	// Phase 1 at t=10: middle half (paper: keys 128M..384M of 512M).
	if lo, hi := s.RangeAt(15); lo != domain/4 || hi != 3*domain/4 {
		t.Errorf("phase 1: [%d,%d)", lo, hi)
	}
	// Each subsequent phase shifts left by domain/64 (8M of 512M).
	for i := 1; i <= 4; i++ {
		tSec := 10 + 20*float64(i) + 1
		lo, hi := s.RangeAt(tSec)
		wantLo := domain/4 - uint64(i)*domain/64
		if lo != wantLo || hi-lo != domain/2 {
			t.Errorf("phase %d: [%d,%d), want lo %d width %d", i+1, lo, hi, wantLo, uint64(domain/2))
		}
	}
	if s.End() != 90 {
		t.Errorf("End = %f", s.End())
	}
	// Keys respect the active phase.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		k := s.Key(rng, 15)
		if k < domain/4 || k >= 3*domain/4 {
			t.Fatalf("phase-1 key %d out of range", k)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []*Schedule{
		{},
		{Phases: []Phase{{Start: 1, Lo: 0, Hi: 10}}},
		{Phases: []Phase{{Start: 0, Lo: 10, Hi: 10}}},
		{Phases: []Phase{{Start: 0, Lo: 0, Hi: 10}, {Start: 0, Lo: 0, Hi: 10}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d accepted", i)
		}
	}
}

func TestPhaseAtBoundaries(t *testing.T) {
	s := &Schedule{Phases: []Phase{
		{Start: 0, Lo: 0, Hi: 10},
		{Start: 10, Lo: 10, Hi: 20},
	}}
	if got := s.PhaseAt(9.999); got != 0 {
		t.Errorf("PhaseAt(9.999) = %d", got)
	}
	if got := s.PhaseAt(10); got != 1 {
		t.Errorf("PhaseAt(10) = %d", got)
	}
}

func TestFillBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 64)
	FillBatch(Uniform{Domain: 10}, rng, 0, keys)
	for _, k := range keys {
		if k >= 10 {
			t.Fatalf("key %d", k)
		}
	}
}
