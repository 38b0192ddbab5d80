package metrics_test

import (
	"testing"

	"eris/internal/faults"
	"eris/internal/metrics"
)

// TestPrefixOwnedByOnePackage registers under a prefix from two packages —
// faults' own RegisterMetrics and this external test package — in both
// orders; the second registration must panic. An external test package
// counts as the package it tests, so metrics' own names do not clash.
func TestPrefixOwnedByOnePackage(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}

	reg := metrics.NewRegistry()
	faults.New(1).RegisterMetrics(reg)
	if !panics(func() { reg.Counter("faults.extra") }) {
		t.Error("faults.* registered from package faults, then from metrics_test: no panic")
	}

	reg = metrics.NewRegistry()
	reg.Counter("faults.extra")
	if !panics(func() { faults.New(1).RegisterMetrics(reg) }) {
		t.Error("faults.* registered from metrics_test, then from package faults: no panic")
	}

	reg = metrics.NewRegistry()
	metrics.RegisterCounter(reg, "x.first")
	if panics(func() { reg.Gauge("x.second") }) {
		t.Error("x.* registered from package metrics, then from metrics_test: panicked")
	}
}
