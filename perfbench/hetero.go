package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/spec"
	"github.com/yasmin-rt/yasmin/internal/telemetry"
	"github.com/yasmin-rt/yasmin/internal/trace"
)

// hetero is the paper's SAR-drone shape, replicated: about a hundred tasks
// on a 1 ms release grid with harmonic periods, partitioned on two
// workers, no churn. Pipelines and fan-in topics carry sequence numbers,
// some tasks have an accelerator version and a CPU fallback, some need the
// accelerator, and a telemetry pipeline streams every record. The coarse
// grid keeps the timing wheel cheap, partitioning rules out stealing and
// no churn means no admission: per-job handoff, dispatch, completion,
// version selection with PIP, topics and recording dominate.
var hetero = &workload{
	name:    "hetero",
	horizon: 4 * time.Second,
	run:     runHetero,
}

const (
	heteroWorkers  = 2
	heteroUtil     = 0.006 // per task; about 0.29 per worker
	heteroCapacity = 16    // topic depth; a subscriber drains every period
	heteroAccel    = "dsp"
	heteroPool     = 1
)

// heteroPeriods is the harmonic period set; every task group cycles
// through it, so the job count per horizon does not depend on the seed.
var heteroPeriods = []time.Duration{1 * time.Millisecond, 2 * time.Millisecond,
	4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond}

// The task groups: units of one period each. A pipeline is a source and
// two subscribers on one topic; a fan-in is two publishers and one
// subscriber.
const (
	heteroPipelines = 8
	heteroFanins    = 4
	heteroDual      = 20 // accelerator version first, CPU version second
	heteroAccelOnly = 6
	heteroCompute   = 34
)

// heteroState is what the task bodies share with the driver: the topic
// oracle, the tracer and the counters of blocking calls.
type heteroState struct {
	ck        *fifoCheck
	tr        *tracer
	drive     spanRef
	computes  int64 // Compute calls (counted, not timed)
	accels    int64 // AccelSection calls (counted, not timed)
	accelJobs int64 // jobs that ran an accelerator version
	pubErrs   []string
}

// heteroSpec generates the application from the seed. Periods are dealt
// from heteroPeriods within each group; the seed picks the deal, the
// release offsets (whole milliseconds below the period), WCETs and worker
// placement. It returns the spec and the job count the horizon implies.
func heteroSpec(seed int64, st *heteroState, horizon time.Duration) (*spec.Spec, int64) {
	rng := rand.New(rand.NewSource(seed))
	s := &spec.Spec{Name: "hetero", Accels: []spec.AccelSpec{{Name: heteroAccel, Count: heteroPool}}}
	var jobs int64
	deal := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i, p := range rng.Perm(n) {
			out[i] = heteroPeriods[p%len(heteroPeriods)]
		}
		return out
	}
	next := 0
	task := func(name string, period time.Duration, offset time.Duration, vs ...spec.VersionSpec) {
		s.Tasks = append(s.Tasks, spec.TaskSpec{Name: name, Period: spec.Duration(period),
			Offset: spec.Duration(offset), Core: next % heteroWorkers, Versions: vs})
		next++
		jobs += int64((horizon - offset + period - 1) / period)
	}
	offset := func(p time.Duration) time.Duration {
		return time.Duration(rng.Int63n(int64(p/time.Millisecond))) * time.Millisecond
	}
	wcet := func(p time.Duration) time.Duration {
		return time.Duration(heteroUtil * float64(p) * (0.8 + 0.4*rng.Float64()))
	}
	cpu := func(w time.Duration) spec.VersionSpec {
		return spec.VersionSpec{Name: "cpu", WCET: spec.Duration(w), Fn: st.computeBody(w)}
	}

	topic := 0
	for i, p := range deal(heteroPipelines) {
		name := fmt.Sprintf("pipe-%d", i)
		cid := core.CID(len(s.Topics))
		off, w := offset(p), wcet(p)
		src := fmt.Sprintf("%s-src", name)
		task(src, p, off, spec.VersionSpec{WCET: spec.Duration(w), Fn: st.pubBody(topic, 0, cid, w)})
		subs := []string{fmt.Sprintf("%s-sub0", name), fmt.Sprintf("%s-sub1", name)}
		for k, sub := range subs {
			task(sub, p, off, spec.VersionSpec{WCET: spec.Duration(w), Fn: st.subBody(topic, k, cid, w)})
		}
		s.Topics = append(s.Topics, spec.TopicSpec{Name: name, Capacity: heteroCapacity,
			Pubs: []string{src}, Subs: subs})
		topic++
	}
	for i, p := range deal(heteroFanins) {
		name := fmt.Sprintf("fanin-%d", i)
		cid := core.CID(len(s.Topics))
		off, w := offset(p), wcet(p)
		pubs := []string{fmt.Sprintf("%s-pub0", name), fmt.Sprintf("%s-pub1", name)}
		for k, pub := range pubs {
			task(pub, p, off, spec.VersionSpec{WCET: spec.Duration(w), Fn: st.pubBody(topic, k, cid, w)})
		}
		sub := fmt.Sprintf("%s-sub", name)
		task(sub, p, off, spec.VersionSpec{WCET: spec.Duration(w), Fn: st.subBody(topic, 0, cid, w)})
		s.Topics = append(s.Topics, spec.TopicSpec{Name: name, Capacity: heteroCapacity,
			Pubs: pubs, Subs: []string{sub}})
		topic++
	}
	for i, p := range deal(heteroDual) {
		w := wcet(p)
		task(fmt.Sprintf("dual-%d", i), p, offset(p), st.accelVersion(w), cpu(2*w))
	}
	for i, p := range deal(heteroAccelOnly) {
		w := wcet(p)
		task(fmt.Sprintf("accel-%d", i), p, offset(p), st.accelVersion(w))
	}
	for i, p := range deal(heteroCompute) {
		w := wcet(p)
		task(fmt.Sprintf("compute-%d", i), p, offset(p), cpu(w))
	}
	return s, jobs
}

func (st *heteroState) computeBody(w time.Duration) core.TaskFunc {
	return func(x *core.ExecCtx, _ any) error {
		st.computes++
		return x.Compute(w)
	}
}

// accelVersion runs half its WCET as a section on the bound accelerator.
func (st *heteroState) accelVersion(w time.Duration) spec.VersionSpec {
	return spec.VersionSpec{Name: "dsp", WCET: spec.Duration(w), AccelCS: spec.Duration(w / 2),
		Accel: heteroAccel, Fn: func(x *core.ExecCtx, _ any) error {
			st.accelJobs++
			st.accels++
			if err := x.AccelSection(w / 2); err != nil {
				return err
			}
			st.computes++
			return x.Compute(w - w/2)
		}}
}

// pubBody computes, then publishes the publisher's next sequence number.
func (st *heteroState) pubBody(topic, pub int, cid core.CID, w time.Duration) core.TaskFunc {
	return func(x *core.ExecCtx, _ any) error {
		st.computes++
		if err := x.Compute(w); err != nil {
			return err
		}
		seq := st.ck.publish(topic, pub)
		sp := st.tr.begin("core.topic.publish", st.drive)
		err := x.Publish(cid, int64(pub)<<32|int64(seq))
		st.tr.end(sp)
		if err != nil {
			st.pubErrs = append(st.pubErrs, fmt.Sprintf("topic %d pub %d seq %d: %v", topic, pub, seq, err))
		}
		return nil
	}
}

// subBody computes, then drains its subscription through the oracle.
func (st *heteroState) subBody(topic, sub int, cid core.CID, w time.Duration) core.TaskFunc {
	st.ck.subscribe(topic, sub)
	return func(x *core.ExecCtx, _ any) error {
		st.computes++
		if err := x.Compute(w); err != nil {
			return err
		}
		for {
			sp := st.tr.begin("core.topic.take", st.drive)
			v, ok, err := x.Take(cid)
			st.tr.end(sp)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			e := v.(int64)
			st.ck.take(topic, sub, int(e>>32), uint64(e&0xffffffff))
		}
	}
}

// timedStream times the telemetry pipeline's record entry points.
type timedStream struct {
	p  *telemetry.Pipeline
	st *heteroState
}

func (s timedStream) StreamJob(j trace.JobRecord) {
	sp := s.st.tr.begin("telemetry.stream", s.st.drive)
	s.p.StreamJob(j)
	s.st.tr.end(sp)
}

func (s timedStream) StreamReconfig(r trace.ReconfigRecord) { s.p.StreamReconfig(r) }
func (s timedStream) StreamRetire(r trace.RetireEvent)      { s.p.StreamRetire(r) }

func (s timedStream) StreamAccel(a trace.AccelEvent) {
	sp := s.st.tr.begin("telemetry.stream", s.st.drive)
	s.p.StreamAccel(a)
	s.st.tr.end(sp)
}

func runHetero(o repOpts) (*rep, error) {
	r := newRep()
	t0 := time.Now()
	st := &heteroState{ck: newFIFOCheck(), tr: o.tr}
	s, wantJobs := heteroSpec(o.seed, st, o.horizon)
	eng := sim.NewEngine(o.seed)
	env, err := rt.NewSimEnv(eng, platform.Generic(heteroWorkers+1), nil)
	if err != nil {
		return nil, err
	}
	pipe, err := telemetry.New(telemetry.NewDiscardSink(), telemetry.Options{})
	if err != nil {
		return nil, err
	}
	var stream trace.Stream = pipe
	if o.tr != nil {
		stream = timedStream{p: pipe, st: st}
	}
	cfg := core.Config{
		Workers:       heteroWorkers,
		Mapping:       core.MappingPartitioned,
		Priority:      core.PriorityRM,
		VersionSelect: core.SelectFirst,
		Preemption:    true,
		RecordAccel:   true,
		Telemetry:     stream,
	}
	app, err := s.Build(cfg, env)
	if err != nil {
		pipe.Close()
		return nil, err
	}
	build := time.Since(t0)

	var start time.Duration
	var startErr error
	env.Spawn("bench-driver", rt.UnpinnedCore, func(c rt.Ctx) {
		ts := time.Now()
		startErr = app.Start(c)
		start = time.Since(ts)
		if startErr != nil {
			return
		}
		c.SleepUntil(o.horizon)
		app.Stop(c)
		app.Cleanup(c)
	})
	st.drive = o.tr.begin("drive", o.parent)
	w0 := time.Now()
	err = eng.RunUntilIdle()
	total := time.Since(w0)
	st.tr.end(st.drive)
	closeErr := pipe.Close()
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if startErr != nil {
		return nil, fmt.Errorf("start: %w", startErr)
	}
	r.setup = build + start
	r.drive = total - start
	o.tr.record("setup", o.parent, t0, r.setup)

	runtime.GC()
	r.heapLive = readRuntime().heapLive
	rec := app.Recorder()
	r.fp = fingerprint{Jobs: rec.TotalJobs(), Misses: rec.TotalMisses(),
		Delivered: st.ck.taken, Epochs: app.Epoch(), Steps: eng.Steps()}
	r.ops = r.fp.Jobs
	tel := pipe.Stats()

	// The gate: FIFO without loss on every topic, no misses, the implied
	// job count, no task errors and a lossless telemetry stream.
	for _, e := range st.pubErrs {
		r.failf("publish failed: %s", e)
	}
	for _, e := range st.ck.finish(heteroCapacity) {
		r.failf("topic: %s", e)
	}
	for i := range s.Topics {
		if d := app.TopicDropped(core.CID(i)); d > 0 {
			r.failf("topic %s dropped %d entries", s.Topics[i].Name, d)
		}
	}
	if r.fp.Misses > 0 {
		r.failf("%d deadline misses", r.fp.Misses)
	}
	if r.fp.Jobs != wantJobs {
		r.failf("%d jobs completed, periods and horizon imply %d", r.fp.Jobs, wantJobs)
	}
	if n := app.TaskErrors(); n > 0 {
		r.failf("%d task errors, first: %v", n, app.FirstError())
	}
	if tel.Dropped > 0 || closeErr != nil {
		r.failf("telemetry dropped %d of %d events (close: %v)", tel.Dropped, tel.Published, closeErr)
	}

	c := r.counts
	sched := app.SchedStats()
	c["steals"] = float64(sched.Steals)
	c["steal_misses"] = float64(sched.StealMisses)
	c["idle_wakes"] = float64(sched.IdleWakes)
	c["migrations"] = float64(sched.Migrations)
	for _, ev := range rec.AccelEvents() {
		switch ev.Kind {
		case trace.AccelAcquire, trace.AccelGrant:
			c["accel_acquires"]++
		case trace.AccelPark:
			c["accel_parks"]++
		case trace.AccelBoost:
			c["accel_boosts"]++
		}
	}
	c["accel_jobs"] = float64(st.accelJobs)
	c["compute_calls"] = float64(st.computes)
	c["accel_calls"] = float64(st.accels)
	c["published"] = float64(st.ck.published)
	c["publish_rejects"] = float64(len(st.pubErrs))
	c["tel_published"] = float64(tel.Published)
	c["tel_dropped"] = float64(tel.Dropped)
	c["tel_batches"] = float64(tel.Batches)
	c["tel_exported"] = float64(tel.Exported)
	return r, nil
}

// fifoCheck is the hetero topic oracle: every subscriber must take every
// publisher's entries in publish order without a gap.
type fifoCheck struct {
	seq       map[[2]int]uint64 // (topic, pub) -> last sequence published
	last      map[[3]int]uint64 // (topic, sub, pub) -> last sequence taken
	subs      map[[2]int]bool   // (topic, sub) declared
	published int64
	taken     int64
	errs      []string
}

func newFIFOCheck() *fifoCheck {
	return &fifoCheck{seq: map[[2]int]uint64{}, last: map[[3]int]uint64{}, subs: map[[2]int]bool{}}
}

// subscribe declares a subscriber the oracle holds to the no-loss rule.
func (f *fifoCheck) subscribe(topic, sub int) { f.subs[[2]int{topic, sub}] = true }

// publish returns the publisher's next sequence number (1-based).
func (f *fifoCheck) publish(topic, pub int) uint64 {
	k := [2]int{topic, pub}
	f.seq[k]++
	f.published++
	return f.seq[k]
}

// take checks one taken entry: it must be the publisher's next one.
func (f *fifoCheck) take(topic, sub, pub int, seq uint64) {
	f.taken++
	k := [3]int{topic, sub, pub}
	if want := f.last[k] + 1; seq != want {
		f.errs = append(f.errs, fmt.Sprintf("topic %d sub %d pub %d: took seq %d, want %d", topic, sub, pub, seq, want))
	}
	f.last[k] = seq
}

// finish returns every violation: out-of-order or missing entries, and
// subscribers further behind a publisher than the buffer can hold.
func (f *fifoCheck) finish(capacity int) []string {
	errs := f.errs
	for ts := range f.subs {
		for tp, n := range f.seq {
			if tp[0] != ts[0] {
				continue
			}
			got := f.last[[3]int{ts[0], ts[1], tp[1]}]
			if n-got > uint64(capacity) {
				errs = append(errs, fmt.Sprintf("topic %d sub %d pub %d: took %d of %d, more than %d lost",
					ts[0], ts[1], tp[1], got, n, capacity))
			}
		}
	}
	return errs
}
