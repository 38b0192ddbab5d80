//go:build !race

package core

// raceEnabled reports whether the test binary runs under the race
// detector, which makes sync.Pool drop cached items at random on purpose.
const raceEnabled = false
