package analysis

import (
	"fmt"
	"sort"
	"time"

	"github.com/yasmin-rt/yasmin/internal/taskset"
)

// MaxIterations bounds the fixed-point iterations of response-time analysis.
const MaxIterations = 10000

// ResponseTimeFP computes worst-case response times for a fixed-priority,
// fully preemptive uniprocessor task set. Tasks must be given in descending
// priority order (index 0 = highest). blocking is an optional per-task
// blocking term (e.g. priority-inversion bound from PIP); pass nil for none.
//
// Returns the response times; schedulable reports whether every response
// time is within its deadline. Tasks with arbitrary deadlines (> period) are
// rejected — use busy-window analysis variants for those.
func ResponseTimeFP(tasks []taskset.Task, blocking []time.Duration) (resp []time.Duration, schedulable bool, err error) {
	n := len(tasks)
	if n == 0 {
		return nil, true, nil
	}
	if blocking != nil && len(blocking) != n {
		return nil, false, fmt.Errorf("analysis: blocking has %d entries for %d tasks", len(blocking), n)
	}
	resp = make([]time.Duration, n)
	schedulable = true
	for i := 0; i < n; i++ {
		ti := &tasks[i]
		if ti.Deadline > ti.Period {
			return nil, false, fmt.Errorf("analysis: task %s has arbitrary deadline; unsupported", ti.Name)
		}
		b := time.Duration(0)
		if blocking != nil {
			b = blocking[i]
		}
		r := ti.WCET + b
		converged := false
		for iter := 0; iter < MaxIterations; iter++ {
			interference := time.Duration(0)
			for j := 0; j < i; j++ {
				tj := &tasks[j]
				k := time.Duration(ceilDiv(int64(r), int64(tj.Period)))
				interference += k * tj.WCET
			}
			next := ti.WCET + b + interference
			if next == r {
				converged = true
				break
			}
			r = next
			if r > ti.Deadline && r > ti.Period {
				// Diverging past any bound of interest.
				break
			}
		}
		resp[i] = r
		if !converged && r <= ti.Deadline {
			return nil, false, fmt.Errorf("analysis: RTA did not converge for task %s", ti.Name)
		}
		if r > ti.Deadline {
			schedulable = false
		}
	}
	return resp, schedulable, nil
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// EDFSchedulableImplicit applies the exact U <= 1 test for preemptive EDF
// with implicit deadlines on one processor.
func EDFSchedulableImplicit(s *taskset.Set) bool {
	for i := range s.Tasks {
		if s.Tasks[i].Deadline != s.Tasks[i].Period {
			return false // not applicable; caller should use DemandBound
		}
	}
	return s.TotalUtilization() <= 1.0+1e-12
}

// DemandBoundEDF applies the processor-demand criterion for preemptive EDF
// with constrained deadlines on one processor: for every absolute deadline d
// up to the analysis bound, dbf(d) <= d.
func DemandBoundEDF(s *taskset.Set) (schedulable bool, err error) {
	u := s.TotalUtilization()
	if u > 1.0+1e-12 {
		return false, nil
	}
	if s.Len() == 0 {
		return true, nil
	}
	allImplicit := true
	for i := range s.Tasks {
		if s.Tasks[i].Deadline < s.Tasks[i].Period {
			allImplicit = false
			break
		}
	}
	if allImplicit {
		// dbf(t) <= U*t <= t for every t when U <= 1: schedulable.
		return true, nil
	}
	// Analysis horizon: min(hyperperiod, Baruah's L_a bound). Violations of
	// the demand criterion can only occur before
	// L_a = U/(1-U) * max_i(T_i - D_i); when that bound is zero no deadline
	// can be violated.
	bound := s.Hyperperiod()
	if u < 1 {
		var worst float64
		for i := range s.Tasks {
			t := &s.Tasks[i]
			v := float64(t.Period-t.Deadline) * u / (1 - u)
			if v > worst {
				worst = v
			}
		}
		la := time.Duration(worst)
		if la == 0 {
			return true, nil
		}
		if la < bound {
			bound = la
		}
	}
	const maxCheckpoints = 2_000_000
	// Collect deadlines to check.
	var points []time.Duration
	for i := range s.Tasks {
		t := &s.Tasks[i]
		for d := t.Deadline; d <= bound; d += t.Period {
			points = append(points, d)
			if len(points) > maxCheckpoints {
				return false, fmt.Errorf("analysis: demand-bound check exceeds %d points", maxCheckpoints)
			}
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for _, d := range points {
		var demand time.Duration
		for i := range s.Tasks {
			t := &s.Tasks[i]
			if d < t.Deadline {
				continue
			}
			k := int64((d-t.Deadline)/t.Period) + 1
			demand += time.Duration(k) * t.WCET
		}
		if demand > d {
			return false, nil
		}
	}
	return true, nil
}

// Partition assigns tasks to m cores by first-fit decreasing utilisation,
// accepting a core assignment when the per-core set remains schedulable
// under the supplied uniprocessor test. It returns the per-core task index
// lists (indices into s.Tasks) or an error when some task fits nowhere.
func Partition(s *taskset.Set, m int, fits func(sub *taskset.Set) bool) ([][]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("analysis: partition onto %d cores", m)
	}
	order := make([]int, s.Len())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.Tasks[order[a]].Utilization() > s.Tasks[order[b]].Utilization()
	})
	bins := make([][]int, m)
	binSets := make([]taskset.Set, m)
	for _, ti := range order {
		placed := false
		for c := 0; c < m; c++ {
			trial := binSets[c]
			trial.Tasks = append(append([]taskset.Task{}, binSets[c].Tasks...), s.Tasks[ti])
			if fits(&trial) {
				bins[c] = append(bins[c], ti)
				binSets[c] = trial
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("analysis: task %s (U=%.3f) fits on no core",
				s.Tasks[ti].Name, s.Tasks[ti].Utilization())
		}
	}
	return bins, nil
}

// UtilizationFits returns a Partition predicate accepting bins whose total
// utilisation stays at or below cap.
func UtilizationFits(cap float64) func(*taskset.Set) bool {
	return func(sub *taskset.Set) bool { return sub.TotalUtilization() <= cap+1e-12 }
}

// GlobalEDFGFBTest applies the Goossens-Funk-Baruah density test for global
// EDF on m identical processors: schedulable if
// delta_sum <= m - (m-1) * delta_max, using densities for constrained
// deadlines. Sufficient, not necessary.
func GlobalEDFGFBTest(s *taskset.Set, m int) bool {
	sum, maxd := densities(s)
	return gfb(sum, maxd, m)
}

// densities returns the density sum and the largest density of a set.
func densities(s *taskset.Set) (sum, maxd float64) {
	for i := range s.Tasks {
		d := s.Tasks[i].Density()
		sum += d
		if d > maxd {
			maxd = d
		}
	}
	return sum, maxd
}

// gfb is the GFB condition on m processors over precomputed densities.
func gfb(sum, maxd float64, m int) bool {
	return m > 0 && sum <= float64(m)-(float64(m)-1)*maxd+1e-12
}
