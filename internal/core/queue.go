package core

import "fmt"

// readyQueue is a fixed-capacity binary heap of jobs ordered by effective
// priority (then FIFO). It is not itself synchronised: callers hold the
// App's queue lock. Capacity is fixed at creation — pushing beyond it fails,
// the static-allocation discipline of the paper.
//
// The heap is intrusive: each job carries its own heap slot in job.heapIdx
// (-1 while not enqueued), so push/pop/fix/remove never touch a position
// map — no allocation and no hashing on the scheduler hot path.
type readyQueue struct {
	heap []*job
	n    int
}

func newReadyQueue(capacity int) *readyQueue {
	return &readyQueue{heap: make([]*job, capacity)}
}

func (q *readyQueue) len() int { return q.n }

// opCost returns the number of heap levels a push/pop traverses, used by the
// caller to charge the platform's per-item queue cost.
func (q *readyQueue) opCost() int {
	levels := 0
	for n := q.n; n > 0; n >>= 1 {
		levels++
	}
	return levels + 1
}

// contains reports whether j currently sits in this queue's heap.
func (q *readyQueue) contains(j *job) bool {
	return j.heapIdx >= 0 && j.heapIdx < q.n && q.heap[j.heapIdx] == j
}

func (q *readyQueue) push(j *job) error {
	if q.n == len(q.heap) {
		return fmt.Errorf("core: ready queue full (%d)", q.n) //yasmin:alloc-ok cold error path
	}
	if q.contains(j) {
		panic(fmt.Sprintf("core: job %d (seq %d) pushed twice", j.poolIdx, j.seq))
	}
	q.heap[q.n] = j
	j.heapIdx = q.n
	q.n++
	q.up(q.n - 1)
	return nil
}

func (q *readyQueue) peek() *job {
	if q.n == 0 {
		return nil
	}
	return q.heap[0]
}

func (q *readyQueue) pop() *job {
	if q.n == 0 {
		return nil
	}
	j := q.heap[0]
	q.n--
	if q.n > 0 {
		q.heap[0] = q.heap[q.n]
		q.heap[0].heapIdx = 0
	}
	q.heap[q.n] = nil
	j.heapIdx = -1
	if q.n > 0 {
		q.down(0)
	}
	return j
}

// fix restores heap order after j's priority changed (PIP boost).
func (q *readyQueue) fix(j *job) {
	if !q.contains(j) {
		return
	}
	q.up(j.heapIdx)
	q.down(j.heapIdx)
}

func (q *readyQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *readyQueue) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < q.n && q.heap[l].before(q.heap[smallest]) {
			smallest = l
		}
		if r < q.n && q.heap[r].before(q.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

func (q *readyQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].heapIdx = i
	q.heap[j].heapIdx = j
}
