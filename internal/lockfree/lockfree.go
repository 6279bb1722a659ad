// Package lockfree implements the synchronisation primitives YASMIN's
// lock-free paths rely on (paper Section 3.5, "Locking", citing
// Mellor-Crummey & Scott, TOCS 1991): the test-and-set spinlock behind the
// LockFree configuration, and a bounded multi-producer single-consumer ring
// that stages topic publishes on the wall-clock backend, carries telemetry
// records to the exporter and queues cluster ingress frames.
//
// Both types are allocation-free after construction: the middleware's
// "no dynamic allocation on the scheduling path" rule (MISRA spirit) holds
// for the Go port too, which the tests assert with testing.AllocsPerRun.
package lockfree

import (
	"runtime"
	"sync/atomic"
)

// TASLock is a plain test-and-set spinlock. Under contention every probe
// bounces the cache line, which is exactly the behaviour the Mollison &
// Anderson baseline exhibits in the Fig. 2 experiment.
type TASLock struct {
	v atomic.Uint32
}

// Lock spins until the lock is acquired.
func (l *TASLock) Lock() {
	for !l.v.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

// Unlock releases the lock.
func (l *TASLock) Unlock() { l.v.Store(0) }
