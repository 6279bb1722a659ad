package lockfree

import (
	"fmt"
	"sync/atomic"
)

// MPSCRing is a bounded multi-producer single-consumer queue: the fan-in
// stage of a pub-sub topic on the wall-clock backend, where any number of
// publisher threads push concurrently and the (lock-serialised) consumer
// side drains. Producers claim slots with one CAS on the enqueue ticket
// (Vyukov's scheme); the single consumer needs no CAS at all, making Pop a
// plain load/store pair. Per-producer FIFO order is preserved: a producer's
// ticket order is its program order.
type MPSCRing[T any] struct {
	slots []mpscSlot[T]
	mask  uint64
	enq   atomic.Uint64
	deq   atomic.Uint64 // written by the single consumer only
}

type mpscSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// NewMPSCRing creates a queue with capacity rounded up to a power of two.
func NewMPSCRing[T any](capacity int) (*MPSCRing[T], error) {
	if capacity < 1 {
		return nil, fmt.Errorf("lockfree: ring capacity must be >= 1, got %d", capacity)
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	q := &MPSCRing[T]{slots: make([]mpscSlot[T], n), mask: uint64(n - 1)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q, nil
}

// Cap returns the queue capacity.
func (q *MPSCRing[T]) Cap() int { return len(q.slots) }

// Len returns the approximate element count.
func (q *MPSCRing[T]) Len() int {
	n := int64(q.enq.Load()) - int64(q.deq.Load())
	if n < 0 {
		return 0
	}
	return int(n)
}

// Push appends v; returns false when full. Safe from any number of
// goroutines.
//
//yasmin:noalloc
func (q *MPSCRing[T]) Push(v T) bool {
	for {
		pos := q.enq.Load()
		slot := &q.slots[pos&q.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos: // slot free for this ticket
			if q.enq.CompareAndSwap(pos, pos+1) {
				slot.val = v
				slot.seq.Store(pos + 1)
				return true
			}
		case seq < pos: // queue full
			return false
		default: // another producer advanced; retry
		}
	}
}

// Pop removes the oldest element; ok is false when empty (or when the
// oldest producer has claimed its slot but not finished writing it — the
// consumer simply retries on its next drain). Only ONE goroutine may pop.
//
//yasmin:noalloc
func (q *MPSCRing[T]) Pop() (v T, ok bool) {
	pos := q.deq.Load()
	slot := &q.slots[pos&q.mask]
	if slot.seq.Load() != pos+1 {
		return v, false
	}
	v = slot.val
	var zero T
	slot.val = zero
	slot.seq.Store(pos + uint64(len(q.slots)))
	q.deq.Store(pos + 1)
	return v, true
}
