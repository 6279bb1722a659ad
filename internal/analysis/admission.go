package analysis

import (
	"fmt"
	"sort"
	"time"

	"github.com/yasmin-rt/yasmin/internal/taskset"
)

// Admission selects the schedulability test an online admission decision
// runs, keyed the way the middleware configuration is: the mapping scheme
// (global vs partitioned ready queues) and the priority assignment (fixed
// vs dynamic). It is the analysis-side mirror of core.Config without the
// import cycle.
type Admission struct {
	// Workers is the number of worker threads (processors for the test).
	Workers int
	// Partitioned selects per-core tests over the Cores assignment; false
	// runs the global multiprocessor tests.
	Partitioned bool
	// FixedPriority selects response-time analysis (RM/DM/user priorities);
	// false selects the EDF demand/density tests.
	FixedPriority bool
	// PrioKey orders tasks for fixed-priority analysis (lower = more
	// urgent); len == set.Len(). Nil defaults to deadline-monotonic order.
	PrioKey []int64
	// Cores assigns each task to a worker (only read when Partitioned);
	// len == set.Len().
	Cores []int
	// Blocking is the per-task worst-case blocking term (e.g. the PIP
	// priority-inversion bound from PIPBlocking); nil means no blocking.
	// Fixed-priority response-time analysis consumes it natively; the
	// demand-bound and density tests fold it into the WCETs
	// (InflateBlocking), which can only overestimate demand — every test
	// stays sufficient.
	Blocking []time.Duration
}

// Result reports an admission decision. When the set is not schedulable,
// Offender names the task the failing test pins the violation on (the task
// whose response time exceeds its deadline, or the densest task for the
// sufficient multiprocessor bounds) and Test names the failed criterion.
type Result struct {
	Schedulable bool
	Offender    string
	Test        string
	Detail      string
}

// Admit runs the schedulability test matching the configuration over the
// task set and reports whether the set is admissible. All tests are
// sufficient (an admitted set is schedulable under the test's assumptions);
// the global fixed-priority case uses the density bound, which is
// conservative. Tasks must carry positive WCET, period and deadline —
// callers exclude tasks without timing information before admission.
func Admit(set *taskset.Set, adm Admission) (Result, error) {
	n := set.Len()
	if n == 0 {
		return Result{Schedulable: true, Test: "empty"}, nil
	}
	if adm.Workers <= 0 {
		return Result{}, fmt.Errorf("analysis: admission with %d workers", adm.Workers)
	}
	if adm.Blocking != nil && len(adm.Blocking) != n {
		return Result{}, fmt.Errorf("analysis: admission has %d blocking terms for %d tasks", len(adm.Blocking), n)
	}
	if adm.Partitioned {
		if len(adm.Cores) != n {
			return Result{}, fmt.Errorf("analysis: admission has %d core assignments for %d tasks", len(adm.Cores), n)
		}
		return admitPartitioned(set, adm)
	}
	if adm.Workers == 1 {
		return admitUniprocessor(set, adm, "")
	}
	// The global sufficient bounds have no native blocking parameter: fold
	// the terms into the WCETs (conservative).
	inflated := InflateBlocking(set, adm.Blocking)
	if adm.FixedPriority {
		return admitDensity(inflated, adm.Workers, "global-fp-density"), nil
	}
	return admitDensity(inflated, adm.Workers, "global-edf-gfb"), nil
}

// admitPartitioned runs the uniprocessor test per core over the explicit
// assignment.
func admitPartitioned(set *taskset.Set, adm Admission) (Result, error) {
	for core := 0; core < adm.Workers; core++ {
		var sub taskset.Set
		var keys []int64
		var blocking []time.Duration
		for i := range set.Tasks {
			if adm.Cores[i] != core {
				continue
			}
			sub.Tasks = append(sub.Tasks, set.Tasks[i])
			if adm.PrioKey != nil {
				keys = append(keys, adm.PrioKey[i])
			}
			if adm.Blocking != nil {
				blocking = append(blocking, adm.Blocking[i])
			}
		}
		if sub.Len() == 0 {
			continue
		}
		subAdm := adm
		subAdm.PrioKey = keys
		subAdm.Blocking = blocking
		res, err := admitUniprocessor(&sub, subAdm, fmt.Sprintf(" on core %d", core))
		if err != nil || !res.Schedulable {
			return res, err
		}
	}
	return Result{Schedulable: true, Test: "partitioned"}, nil
}

// admitUniprocessor applies RTA (fixed priority) or the processor-demand
// criterion (EDF) to a single-core subset.
func admitUniprocessor(set *taskset.Set, adm Admission, where string) (Result, error) {
	if adm.FixedPriority {
		order := priorityOrder(set, adm.PrioKey)
		sorted := make([]taskset.Task, len(order))
		var blocking []time.Duration
		if adm.Blocking != nil {
			blocking = make([]time.Duration, len(order))
		}
		for k, i := range order {
			sorted[k] = set.Tasks[i]
			if blocking != nil {
				blocking[k] = adm.Blocking[i]
			}
		}
		resp, ok, err := ResponseTimeFP(sorted, blocking)
		if err != nil {
			// Arbitrary deadlines (or divergence) fall back to the density
			// bound so admission stays decidable.
			return admitDensity(InflateBlocking(set, adm.Blocking), 1, "fp-density"+where), nil
		}
		if !ok {
			for k := range sorted {
				if resp[k] > sorted[k].Deadline {
					detail := fmt.Sprintf("response time %v exceeds deadline %v",
						resp[k], sorted[k].Deadline)
					if blocking != nil && blocking[k] > 0 {
						detail += fmt.Sprintf(" (includes blocking %v)", blocking[k])
					}
					return Result{
						Offender: sorted[k].Name,
						Test:     "fp-rta" + where,
						Detail:   detail,
					}, nil
				}
			}
			return Result{
				Offender: densest(set).Name,
				Test:     "fp-rta" + where,
				Detail:   "response-time analysis failed",
			}, nil
		}
		return Result{Schedulable: true, Test: "fp-rta" + where}, nil
	}
	// EDF: the demand-bound criterion has no native blocking parameter;
	// fold the terms into the WCETs (conservative).
	inflated := InflateBlocking(set, adm.Blocking)
	ok, err := DemandBoundEDF(inflated)
	if err != nil {
		return admitDensity(inflated, 1, "edf-density"+where), nil
	}
	if !ok {
		t := densest(inflated)
		detail := fmt.Sprintf("processor demand exceeds capacity (U=%.3f)", inflated.TotalUtilization())
		if inflated != set {
			detail = fmt.Sprintf("processor demand exceeds capacity (U=%.3f incl. blocking)",
				inflated.TotalUtilization())
		}
		return Result{
			Offender: t.Name,
			Test:     "edf-demand-bound" + where,
			Detail:   detail,
		}, nil
	}
	return Result{Schedulable: true, Test: "edf-demand-bound" + where}, nil
}

// admitDensity applies the Goossens-Funk-Baruah density condition
// delta_sum <= m - (m-1)*delta_max on m processors. Exact only as a
// sufficient test for global EDF; for fixed priorities it is a conservative
// guard (sets passing it are also FP-schedulable under the density argument
// delta_max <= 1 per processor).
func admitDensity(set *taskset.Set, m int, test string) Result {
	sum, maxd := densities(set)
	if gfb(sum, maxd, m) && maxd <= 1.0+1e-12 {
		return Result{Schedulable: true, Test: test}
	}
	t := densest(set)
	return Result{
		Offender: t.Name,
		Test:     test,
		Detail: fmt.Sprintf("density sum %.3f > %d - %d*%.3f (max density task %s)",
			sum, m, m-1, t.Density(), t.Name),
	}
}

// priorityOrder returns task indices sorted by the explicit key (lower =
// more urgent), defaulting to deadline-monotonic, with period and then
// declaration order as stable tie-breakers.
func priorityOrder(set *taskset.Set, key []int64) []int {
	order := make([]int, set.Len())
	for i := range order {
		order[i] = i
	}
	keyOf := func(i int) int64 {
		if key != nil {
			return key[i]
		}
		return int64(set.Tasks[i].Deadline)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := keyOf(order[a]), keyOf(order[b])
		if ka != kb {
			return ka < kb
		}
		return set.Tasks[order[a]].Period < set.Tasks[order[b]].Period
	})
	return order
}

// densest returns the task with the highest density (ties: first declared).
func densest(set *taskset.Set) *taskset.Task {
	best, bestD := &set.Tasks[0], set.Tasks[0].Density()
	for i := 1; i < len(set.Tasks); i++ {
		if d := set.Tasks[i].Density(); d > bestD {
			best, bestD = &set.Tasks[i], d
		}
	}
	return best
}
