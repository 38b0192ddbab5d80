// Fixture for the hotpath analyzer: allocating constructs and unannotated
// in-module callees inside //eris:hotpath functions are flagged; annotated
// callees, amortized appends, stack struct literals, and reasoned
// //eris:allowalloc suppressions are not — and a reasonless suppression
// does not suppress.
package a

import (
	"errors"
	"fmt"
)

type point struct{ x, y int }

//eris:hotpath
func hot(buf []byte, s string, n int) []byte {
	m := make([]int, n) // want `hot path allocates: make`
	_ = m
	p := new(point) // want `hot path allocates: new`
	_ = p
	q := &point{1, 2} // want `hot path allocates: &composite literal escapes to the heap`
	_ = q
	onStack := point{3, 4}
	_ = onStack
	xs := []int{1, 2, 3} // want `hot path allocates: slice literal`
	_ = xs
	kv := map[string]int{} // want `hot path allocates: map literal`
	_ = kv
	f := func() {} // want `hot path allocates: func literal \(closure\)`
	_ = f
	go helper() // want `hot path spawns a goroutine`

	msg := fmt.Sprintf("%d", n) // want `hot path allocates: fmt\.Sprintf`
	err := errors.New("boom")   // want `hot path allocates: errors\.New`
	_, _ = msg, err

	s2 := s + "!"  // want `hot path allocates: string concatenation`
	b := []byte(s) // want `hot path allocates: \[\]byte conversion copies`
	_, _ = s2, b

	helper() // want `hot path calls a\.helper, which is not annotated //eris:hotpath`
	annotated()

	buf = append(buf[:0], 1, 2)
	buf = append([]byte{}, buf...) // want `hot path allocates: append growing a fresh slice` `hot path allocates: slice literal`
	return buf
}

func helper() {}

//eris:hotpath
func annotated() {}

//eris:hotpath
func suppressed(n int) []int {
	return make([]int, n) //eris:allowalloc growth is amortized; the caller reuses the slice
}

//eris:hotpath
func reasonless(n int) []int {
	return make([]int, n) /* want `hot path allocates: make` `//eris:allowalloc requires a reason` */ //eris:allowalloc
}

// A verb of a retired analyzer is an unknown directive and suppresses
// nothing.
//
//eris:hotpath
func retiredVerb(n int) []int {
	return make([]int, n) /* want `hot path allocates: make` `unknown directive //eris:allowname` */ //eris:allowname metric names are checked at registration
}
