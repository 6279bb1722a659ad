package lockfree

import (
	"sync"
	"testing"
)

// exerciseLock hammers a counter behind lock/unlock closures and verifies
// mutual exclusion.
func exerciseLock(t *testing.T, goroutines, iters int, lock, unlock func()) {
	t.Helper()
	var counter int
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lock()
				counter++
				unlock()
			}
		}()
	}
	wg.Wait()
	if want := goroutines * iters; counter != want {
		t.Errorf("counter = %d, want %d (lost updates => broken mutual exclusion)", counter, want)
	}
}

func TestTASLockMutualExclusion(t *testing.T) {
	var l TASLock
	exerciseLock(t, 8, 2000, l.Lock, l.Unlock)
}

func TestPushPopNoAllocs(t *testing.T) {
	q, err := NewMPSCRing[int](8)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("MPSC push/pop allocates %.1f objects/op, want 0", allocs)
	}
}
