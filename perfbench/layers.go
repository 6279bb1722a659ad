package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// untracedShare is the part of a traced run's budget spent on untraced
// repetitions, whose median jobs/s is the base of the tracing overhead.
const untracedShare = 0.4

// measureTraced is the traced run: untraced repetitions first for the
// overhead base, then traced repetitions with spans, counters and a CPU
// profile, from which the per-layer metrics derive.
func measureTraced(wl *workload, o runOpts, outDir string, w io.Writer) (*result, error) {
	res := newResult()
	warmUp(wl, o, res)
	hs := startSampler()
	defer hs.stop()
	base := runReps(wl, o, time.Duration(float64(o.budget)*untracedShare), 2, hs, nil, res)

	tr := newTracer()
	rt0 := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	wall0 := time.Now()
	reps := runReps(wl, o, time.Duration(float64(o.budget)*(1-untracedShare)), 1, hs, tr, res)
	wall := time.Since(wall0)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	if len(reps) == 0 || len(base) == 0 {
		return nil, errNoReps
	}
	cp, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "# workload=%s seed=%d traced reps=%d untraced reps=%d horizon=%s fingerprint=%+v\n",
		wl.name, o.seed, len(reps), len(base), wl.horizon, reps[0].fp)
	c := map[string]float64{}
	var jobs, steps, goroutines float64
	for _, r := range reps {
		goroutines = max(goroutines, float64(r.peak.goroutines))
		for k, v := range r.counts {
			c[k] += v
		}
		jobs += float64(r.fp.Jobs)
		steps += float64(r.fp.Steps)
	}
	perJob := func(v float64) float64 { return ratio(v, jobs) }

	traced, untraced := median(jobRates(reps)), median(jobRates(base))
	res.set("trace.jobs_per_s", traced, "jobs/s")
	res.set("trace.untraced_jobs_per_s", untraced, "jobs/s")
	res.set("trace.overhead", 1-traced/untraced, "ratio")
	res.set("trace.cpu_per_wall", float64(cp.totalNS)/float64(wall), "ratio")
	rep := tr.agg["rep"] // every traced repetition is a "rep" span
	res.set("trace.span_other_share", ratio(float64(rep.total-rep.kids), float64(rep.total)), "share")

	res.set("core.sched.steals_per_job", perJob(c["steals"]), "steals/job")
	res.set("core.sched.steal_miss_ratio", ratio(c["steal_misses"], c["steals"]+c["steal_misses"]), "ratio")
	res.set("core.sched.idle_wakes_per_job", perJob(c["idle_wakes"]), "wakes/job")
	res.set("core.sched.migrations_per_job", perJob(c["migrations"]), "moves/job")

	call, stage := tr.agg["core.reconfig.call"], tr.agg["core.reconfig.stage"]
	admitCommit := 0.0
	if call != nil && stage != nil && call.count > 0 {
		admitCommit = float64(call.total-stage.total) / float64(call.count) / 1e3
	}
	res.set("core.reconfig.stage_us", tr.mean("core.reconfig.stage")/1e3, "us")
	res.set("core.reconfig.lookup_us", tr.mean("core.reconfig.lookup")/1e3, "us")
	res.set("core.reconfig.admit_commit_us", admitCommit, "us")
	res.set("core.reconfig.alloc_kb_per_tx", ratio(c["tx_alloc_bytes"], c["tx"])/1024, "KiB")

	res.set("sim.steps_per_job", perJob(steps), "steps/job")
	res.set("sim.compute_calls_per_job", perJob(c["compute_calls"]), "calls/job")
	res.set("sim.accel_calls_per_job", perJob(c["accel_calls"]), "calls/job")

	res.set("core.topic.publish_ns", tr.mean("core.topic.publish"), "ns")
	res.set("core.topic.take_ns", tr.mean("core.topic.take"), "ns")
	res.set("core.topic.reject_ratio", ratio(c["publish_rejects"], c["published"]+c["publish_rejects"]), "ratio")

	res.set("core.accel.park_ratio", ratio(c["accel_parks"], c["accel_acquires"]), "ratio")
	res.set("core.accel.boosts_per_job", perJob(c["accel_boosts"]), "boosts/job")
	res.set("core.vselect.accel_share", perJob(c["accel_jobs"]), "share")

	res.set("telemetry.stream_ns", tr.mean("telemetry.stream"), "ns")
	res.set("telemetry.drop_ratio", ratio(c["tel_dropped"], c["tel_published"]), "ratio")
	res.set("telemetry.events_per_batch", ratio(c["tel_exported"], c["tel_batches"]), "events")

	res.set("cluster.codec_ns", tr.mean("cluster.codec"), "ns")
	res.set("cluster.bytes_per_frame", ratio(c["codec_bytes"], c["codec_frames"]), "bytes")
	res.set("cluster.drop_ratio", ratio(c["frames_dropped"], c["frames_sent"]), "ratio")
	res.set("cluster.frames_per_job", perJob(c["frames_received"]), "frames/job")

	res.set("go.gc_cpu_frac", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), "ratio")
	res.set("go.alloc_bytes_per_job", perJob(float64(rt1.allocs-rt0.allocs)), "bytes/job")
	res.set("go.goroutines", goroutines, "count")

	shares := cp.layerShares()
	fmt.Fprintf(w, "# cpu profile: %.3fs sampled over %.3fs traced wall\n", float64(cp.totalNS)/1e9, wall.Seconds())
	for _, l := range cpuLayers() {
		res.set(l, shares[l], "share")
		fmt.Fprintf(w, "# %-22s %6.2f%%\n", l, 100*shares[l])
	}
	printLayerMap(w)
	tr.printSpans(w)

	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", wl.name, o.seed))
	if err := tr.writeSpans(stem + ".spans.tsv"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "# wrote %s.spans.tsv and %s.cpu.pprof\n", stem, stem)
	return res, nil
}
