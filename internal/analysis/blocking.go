package analysis

import (
	"fmt"
	"sort"
	"time"

	"github.com/yasmin-rt/yasmin/internal/taskset"
)

// BlockingTerm is one task's worst-case priority-inversion bound under the
// Priority Inheritance Protocol, with its largest single contribution named
// for diagnostics: Accel is the pool and From the lower-priority task whose
// critical section dominates the bound.
type BlockingTerm struct {
	Dur   time.Duration
	Accel string
	From  string

	// dominantCS tracks the largest single contribution while accumulating
	// (drives the Accel/From attribution).
	dominantCS time.Duration
}

// String renders the term for admission-rejection messages.
func (b BlockingTerm) String() string {
	if b.Dur == 0 {
		return "0"
	}
	return fmt.Sprintf("%v on %s (longest critical section of %s)", b.Dur, b.Accel, b.From)
}

// PIPBlocking computes per-task worst-case blocking terms for shared
// accelerator pools arbitrated with the Priority Inheritance Protocol
// (Section 3.2). key orders the tasks (lower = more urgent; declaration
// order breaks ties); nil defaults to relative deadlines — the preemption
// levels EDF resource analysis uses.
//
// The bound is the classical per-resource PIP bound: task i can be blocked
// at most once per pool, for the longest critical section of any
// lower-priority task on that pool, counting a pool only when i itself or a
// higher-priority task uses it (direct and push-through blocking). A pool
// with at least as many instances as tasks touching it never blocks — an
// instance is always free — so growing a pool genuinely buys admission
// headroom. Summing over pools is sufficient (safe), not tight. When no
// task uses a pool the result is nil: nobody blocks, and an admission over
// a CPU-only set pays nothing per task.
func PIPBlocking(set *taskset.Set, key []int64) []BlockingTerm {
	if !usesPool(set) {
		return nil
	}
	n := set.Len()
	out := make([]BlockingTerm, n)
	if key == nil {
		key = make([]int64, n)
		for i := range set.Tasks {
			key[i] = int64(set.Tasks[i].Deadline)
		}
	}
	// moreUrgent reports whether task a outranks task b.
	moreUrgent := func(a, b int) bool {
		if key[a] != key[b] {
			return key[a] < key[b]
		}
		return a < b
	}

	type user struct {
		idx int
		cs  time.Duration
	}
	pools := make(map[string][]user)
	counts := make(map[string]int)
	for i := range set.Tasks {
		for _, u := range set.Tasks[i].Accels {
			if u.Pool == "" || u.CS <= 0 {
				continue
			}
			pools[u.Pool] = append(pools[u.Pool], user{idx: i, cs: u.CS})
			cnt := u.Count
			if cnt < 1 {
				cnt = 1
			}
			if cnt > counts[u.Pool] {
				counts[u.Pool] = cnt
			}
		}
	}
	names := make([]string, 0, len(pools))
	for name := range pools {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic accumulation and attribution

	for i := range set.Tasks {
		for _, name := range names {
			users := pools[name]
			if len(users) <= counts[name] {
				continue // an instance is always free: no contention
			}
			relevant := false
			for _, u := range users {
				if u.idx == i || moreUrgent(u.idx, i) {
					relevant = true
					break
				}
			}
			if !relevant {
				continue
			}
			var worst user
			for _, u := range users {
				if u.idx != i && !moreUrgent(u.idx, i) && u.cs > worst.cs {
					worst = u
				}
			}
			if worst.cs == 0 {
				continue
			}
			out[i].Dur += worst.cs
			if worst.cs > out[i].dominantCS {
				out[i].Accel = name
				out[i].From = set.Tasks[worst.idx].Name
				out[i].dominantCS = worst.cs
			}
		}
	}
	return out
}

// usesPool reports whether any task holds a critical section on a pool.
func usesPool(set *taskset.Set) bool {
	for i := range set.Tasks {
		for _, u := range set.Tasks[i].Accels {
			if u.Pool != "" && u.CS > 0 {
				return true
			}
		}
	}
	return false
}

// Durations projects the blocking terms onto the plain per-task durations
// the admission tests consume; nil terms (no pool in use) project to nil,
// which the tests read as "no blocking".
func Durations(terms []BlockingTerm) []time.Duration {
	if terms == nil {
		return nil
	}
	out := make([]time.Duration, len(terms))
	for i := range terms {
		out[i] = terms[i].Dur
	}
	return out
}

// InflateBlocking returns a copy of the set with each task's blocking term
// folded into its WCET — the conservative reduction that lets the
// demand-bound and density tests (which have no native blocking parameter)
// price priority inversion: demand can only be overestimated, so the tests
// stay sufficient. A nil or all-zero blocking vector returns the set
// unchanged.
func InflateBlocking(set *taskset.Set, blocking []time.Duration) *taskset.Set {
	if len(blocking) == 0 {
		return set
	}
	any := false
	for _, b := range blocking {
		if b > 0 {
			any = true
			break
		}
	}
	if !any {
		return set
	}
	out := &taskset.Set{Tasks: make([]taskset.Task, len(set.Tasks))}
	copy(out.Tasks, set.Tasks)
	for i := range out.Tasks {
		if i < len(blocking) {
			out.Tasks[i].WCET += blocking[i]
		}
	}
	return out
}
