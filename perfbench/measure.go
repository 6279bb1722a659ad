package main

import (
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// runOpts are the command-line inputs every workload shares.
type runOpts struct {
	root   string // checkout root (scenarios/ lives there)
	seed   int64
	budget time.Duration // measuring time
}

// repOpts configure one repetition of a workload.
type repOpts struct {
	root    string
	seed    int64
	horizon time.Duration // simulated length of the repetition
	tr      *tracer       // nil: untraced
	parent  spanRef       // the repetition's span when traced
}

// workload is one named benchmark input: a generator of repetitions. A
// repetition builds the application from the seed, drives it for the
// virtual horizon and checks its outputs.
type workload struct {
	name string
	// horizon is the virtual length of one measured repetition, chosen so
	// a repetition takes a few wall seconds; several fit in one run.
	horizon time.Duration
	run     func(o repOpts) (*rep, error)
}

// fingerprint is the virtual-time outcome of a repetition. SimEnv is
// deterministic, so every repetition of one seed must reproduce it exactly.
type fingerprint struct {
	Jobs, Misses, Delivered int64
	Epochs                  int
	Steps                   uint64
	Frames                  uint64
}

// rep is the outcome of one repetition.
type rep struct {
	setup time.Duration // spec generation, Build and Start
	drive time.Duration // driven run
	fp    fingerprint
	// ops and fails count operations (jobs, transactions, frames) and the
	// failures among them that the workload did not inject.
	ops, fails int64
	failures   []string
	// calls are the host times of the timed App.Reconfigure calls.
	calls []time.Duration
	// counts are the layer counters the per-layer metrics derive from.
	counts map[string]float64
	// peak is the live heap and goroutine peak sampled during the
	// repetition.
	peak rtSnapshot
	// heapLive is the live heap after a collection at the end of the
	// drive, with the application still reachable. Sampled peaks depend on
	// when collections happen to run (on hetero they differed by 50%
	// between seeds whose end state is the same size), so the workloads
	// that hold their application report this instead. Zero for the
	// RunWith workloads, whose application is gone when RunWith returns;
	// they report the sampled peak.
	heapLive uint64
}

func newRep() *rep { return &rep{counts: map[string]float64{}} }

func (r *rep) failf(format string, args ...any) {
	r.fails++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// minReps is the fewest measured repetitions in a run: a median of fewer
// would be a single sample.
const minReps = 3

// runReps runs repetitions until the budget is spent (at least n), checks
// that they agree on the fingerprint, and adds each to res.
func runReps(wl *workload, o runOpts, budget time.Duration, n int, hs *sampler, tr *tracer, res *result) []*rep {
	var reps []*rep
	t0 := time.Now()
	for len(reps) < n || time.Since(t0) < budget {
		if tr != nil {
			tr.run++
		}
		hs.take()
		sp := tr.begin("rep", spanRef{})
		r, err := wl.run(repOpts{root: o.root, seed: o.seed, horizon: wl.horizon, tr: tr, parent: sp})
		tr.end(sp)
		if err != nil {
			// A harness error repeats; one report is enough.
			res.fail("repetition %d: %v", len(reps), err)
			res.Failed++
			break
		}
		r.peak = hs.take()
		if len(reps) > 0 && r.fp != reps[0].fp {
			r.failf("repetition %d fingerprint %+v differs from %+v", len(reps), r.fp, reps[0].fp)
		}
		res.add(r)
		reps = append(reps, r)
	}
	return reps
}

// add folds one repetition's operation counts and failures into res.
func (res *result) add(r *rep) {
	res.Attempted += r.ops
	res.Failed += r.fails
	for _, f := range r.failures {
		res.fail("%s", f)
	}
}

// setupRuns is the number of set-ups a run times: repetitions at a 1 ms
// horizon, whose cost is almost all set-up, each after a collection that
// returns the free heap to the OS. Every set-up then pays for touching the
// memory it allocates, rather than sometimes reusing pages the garbage of
// earlier work left mapped, which made the figure bimodal.
const setupRuns = 9

// warmUp runs one untimed repetition at a quarter horizon, so lazy set-up
// and heap growth are paid before timing, then the set-up probes, and
// returns their set-up times. Every gate still counts.
func warmUp(wl *workload, o runOpts, res *result) []float64 {
	var setups []float64
	for i := 0; i <= setupRuns; i++ {
		h := time.Millisecond
		if i == 0 {
			h = wl.horizon / 4
		} else {
			debug.FreeOSMemory()
		}
		r, err := wl.run(repOpts{root: o.root, seed: o.seed, horizon: h})
		if err != nil {
			res.fail("warm-up: %v", err)
			res.Failed++
			return nil
		}
		if i > 0 {
			setups = append(setups, r.setup.Seconds())
		}
		res.add(r)
	}
	return setups
}

// measure is the untraced run: the end-to-end metrics.
func measure(wl *workload, o runOpts, w io.Writer) (*result, error) {
	res := newResult()
	setups := warmUp(wl, o, res)
	hs := startSampler()
	reps := runReps(wl, o, o.budget, minReps, hs, nil, res)
	hs.stop()
	if len(reps) == 0 {
		return nil, errNoReps
	}
	fmt.Fprintf(w, "# workload=%s seed=%d reps=%d horizon=%s fingerprint=%+v\n",
		wl.name, o.seed, len(reps), wl.horizon, reps[0].fp)
	rates := jobRates(reps)
	fmt.Fprintf(w, "# per-repetition jobs/s %.0f\n", rates)
	res.set("jobs_per_s", median(rates), "jobs/s")
	res.set("setup_s", median(setups), "s")
	heaps := make([]float64, len(reps))
	for i, r := range reps {
		heaps[i] = float64(r.peak.heapLive) / (1 << 20)
		if r.heapLive > 0 {
			heaps[i] = float64(r.heapLive) / (1 << 20)
		}
	}
	res.set("heap_mb", median(heaps), "MiB")
	reportWorkloadFigures(reps, res)
	return res, nil
}

// reportWorkloadFigures adds the figures that apply to only some workloads
// (reconfiguration latency, frame rate) and the miss and fail ratios to the
// readable report.
func reportWorkloadFigures(reps []*rep, res *result) {
	var jobs, misses, frames float64
	var drive time.Duration
	var calls []float64
	for _, r := range reps {
		jobs += float64(r.fp.Jobs)
		misses += float64(r.fp.Misses)
		frames += float64(r.fp.Frames)
		drive += r.drive
		for _, c := range r.calls {
			calls = append(calls, c.Seconds()*1e3)
		}
	}
	res.note("miss_ratio", ratio(misses, jobs), "ratio")
	res.note("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	if len(calls) > 0 {
		res.note("reconfig_p50_ms", percentile(calls, 0.50), "ms")
		res.note("reconfig_p95_ms", percentile(calls, 0.95), "ms")
		res.note("reconfig_samples", float64(len(calls)), "count")
	}
	if frames > 0 {
		res.note("frames_per_s", frames/drive.Seconds(), "frames/s")
	}
}

func jobRates(reps []*rep) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = float64(r.fp.Jobs) / r.drive.Seconds()
	}
	return out
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the linear-interpolated q-quantile of v (v is not changed).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// --- runtime/metrics ---

// runtimeMetrics names the runtime/metrics samples the benchmark reads.
var runtimeMetrics = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/goroutines:goroutines",
}

// rtSnapshot is one reading of runtimeMetrics.
type rtSnapshot struct {
	heapLive, allocs uint64
	gcCPU, totalCPU  float64
	goroutines       uint64
}

func readRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnapshot{
		heapLive:   s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		goroutines: s[4].Value.Uint64(),
	}
}

// sampler polls the live heap and goroutine count and keeps their peaks
// per window; take closes a window.
type sampler struct {
	quit chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak rtSnapshot // since the last take
}

func startSampler() *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			s.observe()
			select {
			case <-s.quit:
				return
			case <-tk.C:
			}
		}
	}()
	return s
}

func (s *sampler) observe() {
	r := readRuntime()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peak.heapLive = max(s.peak.heapLive, r.heapLive)
	s.peak.goroutines = max(s.peak.goroutines, r.goroutines)
}

// take returns the peaks since the previous take and opens a new window.
func (s *sampler) take() rtSnapshot {
	s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = rtSnapshot{}
	return p
}

// stop ends the polling goroutine and waits for it.
func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// workloadNames lists the workloads for usage messages.
func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// workloads is the registry of named workloads.
var workloads = map[string]*workload{
	scale10k.name:    scale10k,
	hetero.name:      hetero,
	reconfig10k.name: reconfig10k,
	clusterWL.name:   clusterWL,
}
