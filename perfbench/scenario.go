package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"github.com/yasmin-rt/yasmin/internal/cluster"
	"github.com/yasmin-rt/yasmin/internal/scenario"
	"github.com/yasmin-rt/yasmin/internal/spec"
)

// scale10k is the committed scenarios/scale10k.yaml — 10k sparse tasks,
// global EDF on 8 virtual workers, churn on every task table — at a
// benchmark-chosen horizon. The scenario checker is the gate.
var scale10k = &workload{
	name:    "scale10k",
	horizon: 600 * time.Millisecond,
	run: func(o repOpts) (*rep, error) {
		sc, err := scenario.LoadFile(filepath.Join(o.root, "scenarios", "scale10k.yaml"))
		if err != nil {
			return nil, err
		}
		return runScenario(sc, o)
	},
}

// clusterWL is the committed scenarios/cluster.yaml: three nodes whose
// fan-in and fan-out topics cross the in-memory transport with seeded loss
// and reorder, and cluster-wide two-phase admissions. The scenario checker
// gates cross-node FIFO and epoch agreement. The horizon is longer than the
// committed one so a repetition drives measurable wall time.
var clusterWL = &workload{
	name:    "cluster",
	horizon: 8 * time.Second,
	run: func(o repOpts) (*rep, error) {
		sc, err := scenario.LoadFile(filepath.Join(o.root, "scenarios", "cluster.yaml"))
		if err != nil {
			return nil, err
		}
		// Left at zero, the scheduler period is the GCD of all periods and
		// release offsets; the generator gives topic tasks random
		// nanosecond offsets, so the GCD, and with it the engine steps per
		// job, varies 14-fold between seeds. A fixed period keeps the
		// seeds comparable.
		sc.SchedulerPeriod = spec.Duration(500 * time.Microsecond)
		r, err := runScenario(sc, o)
		if err == nil && o.tr != nil {
			codecProbe(o, r)
		}
		return r, err
	},
}

// runScenario runs sc through scenario.RunWith with the run's seed and
// horizon and turns its report into a repetition.
func runScenario(sc *scenario.Scenario, o repOpts) (*rep, error) {
	sc.Seed = o.seed
	sc.Duration = spec.Duration(o.horizon)
	t0 := time.Now()
	sr, err := scenario.RunWith(sc, scenario.RunOpts{})
	if err != nil {
		return nil, err
	}
	total := time.Since(t0)
	r := newRep()
	r.drive = time.Duration(sr.WallNS)
	r.setup = total - r.drive
	o.tr.record("setup", o.parent, t0, r.setup)
	o.tr.record("drive", o.parent, t0.Add(r.setup), r.drive)

	var ns cluster.NodeStats
	for _, n := range sr.Nodes {
		ns.FramesSent += n.FramesSent
		ns.FramesReceived += n.FramesReceived
		ns.FramesDropped += n.FramesDropped
		ns.InjectedLoss += n.InjectedLoss
		ns.StaleSeq += n.StaleSeq
		ns.StaleEpoch += n.StaleEpoch
		ns.Rejected += n.Rejected
		ns.Unroutable += n.Unroutable
		ns.Overflow += n.Overflow
	}
	r.fp = fingerprint{Jobs: sr.Jobs, Misses: sr.Misses, Delivered: sr.Delivered,
		Epochs: sr.Epochs, Steps: sr.EngineSteps, Frames: ns.FramesReceived}
	r.ops = sr.Jobs + int64(sr.Epochs) + sr.Rejections + int64(ns.FramesSent)
	for _, v := range sr.Violations {
		r.failf("checker: %s", v)
	}
	if sr.Rejections > 0 {
		r.failf("%d churn transactions rejected", sr.Rejections)
	}
	// Loss and reorder are injected; a frame refused by a topic, without
	// a route or overflowing ingress is not.
	if bad := ns.Rejected + ns.Unroutable + ns.Overflow; bad > 0 {
		r.failf("%d frames dropped without injection (rejected %d, unroutable %d, overflow %d)",
			bad, ns.Rejected, ns.Unroutable, ns.Overflow)
	}

	c := r.counts
	c["steals"] = float64(sr.Sched.Steals)
	c["steal_misses"] = float64(sr.Sched.StealMisses)
	c["idle_wakes"] = float64(sr.Sched.IdleWakes)
	c["migrations"] = float64(sr.Sched.Migrations)
	c["accel_acquires"] = float64(sr.AccelAcquires)
	c["accel_parks"] = float64(sr.AccelParks)
	c["accel_boosts"] = float64(sr.AccelBoosts)
	c["published"] = float64(sr.Published)
	c["frames_sent"] = float64(ns.FramesSent)
	c["frames_received"] = float64(ns.FramesReceived)
	c["frames_dropped"] = float64(ns.FramesDropped)
	return r, nil
}

// codecProbe times direct AppendFrame + ParseFrame round trips of data
// frames shaped like the workload's traffic, one span per round trip.
func codecProbe(o repOpts, r *rep) {
	const n = 20000
	rng := rand.New(rand.NewSource(o.seed))
	topics := []string{"fanin-0", "fanin-1", "fanout-0", "local-0"}
	buf := make([]byte, 0, 256)
	var bytes int
	for i := 0; i < n; i++ {
		f := cluster.Frame{Kind: cluster.FrameData, Origin: rng.Intn(3), Topic: topics[i%len(topics)],
			Pub: rng.Intn(64), Seq: uint64(i + 1), Epoch: uint64(i / 1000), SentAt: int64(i) * 1e6,
			Val: rng.Int63()}
		sp := o.tr.begin("cluster.codec", o.parent)
		buf = cluster.AppendFrame(buf[:0], &f)
		g, err := cluster.ParseFrame(buf)
		o.tr.end(sp)
		if err != nil || g != f {
			r.failf("codec round trip %d: %v (got %+v, want %+v)", i, err, g, f)
			return
		}
		bytes += len(buf)
	}
	r.counts["codec_frames"] = n
	r.counts["codec_bytes"] = float64(bytes)
}
