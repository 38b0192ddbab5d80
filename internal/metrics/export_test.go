package metrics

// RegisterCounter registers name from package metrics itself, so the
// external test package can check that a _test package counts as the
// package it tests.
func RegisterCounter(r *Registry, name string) { r.Counter(name) }
