// Fixture for the loopblock analyzer: blocking operations reachable from an
// //eris:loop root are flagged with their call chain — a default-less select
// once, at the select, for all of its arms; select-with-default,
// go-statement targets, unreachable functions, and reasoned
// //eris:allowblock suppressions (including the one-directive park shape:
// a wake channel raced against a timeout) are not.
package a

import (
	"sync"
	"time"
)

type W struct {
	mu    sync.Mutex
	ch    chan int
	wake  chan struct{}
	timer *time.Timer
}

//eris:loop
func (w *W) Run() {
	w.step()
	w.allowed()
	w.park()
	select { // want `blocking select \(no default case\) reachable from loop: \(\*a\.W\)\.Run`
	case v := <-w.ch:
		_ = v
	}
	<-w.ch // want `blocking channel receive reachable from loop: \(\*a\.W\)\.Run`
	select {
	case v := <-w.ch:
		_ = v
	default:
	}
	go w.background()
}

func (w *W) step() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reachable from loop: \(\*a\.W\)\.Run -> \(\*a\.W\)\.step`
	w.mu.Lock()                  // want `mutex Lock on a shared type reachable from loop: \(\*a\.W\)\.Run -> \(\*a\.W\)\.step`
	w.mu.Unlock()
}

// background runs on its own goroutine (go-statement target): its sleep is
// not loop-reachable.
func (w *W) background() {
	time.Sleep(time.Second)
}

// notReachable is never called from the loop root.
func (w *W) notReachable() {
	time.Sleep(time.Second)
}

func (w *W) allowed() {
	w.mu.Lock() //eris:allowblock bounded critical section; no I/O under the lock
	w.mu.Unlock()
}

// park is the allowed idle-park shape: one directive on the select covers
// both arms.
func (w *W) park() {
	w.timer.Reset(time.Millisecond)
	select { //eris:allowblock the loop is quiescent; every producer sends on wake and the timer bounds the wait
	case <-w.wake:
		w.timer.Stop()
	case <-w.timer.C:
	}
}
