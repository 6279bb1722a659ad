package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/yasmin-rt/yasmin/internal/core"
	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
	"github.com/yasmin-rt/yasmin/internal/spec"
)

// reconfig10k keeps 10k tasks live with long periods on a coarse grid, so
// few jobs run, while the benchmark's driver issues back-to-back admit,
// retire-by-name and retune transactions of a few dozen tasks each and
// times every App.Reconfigure call.
var reconfig10k = &workload{
	name:    "reconfig10k",
	horizon: 240 * time.Millisecond, // 120 transactions reconfigGap apart
	run:     runReconfig,
}

const (
	reconfigTasks   = 10000
	reconfigBatch   = 32 // tasks per transaction
	reconfigWorkers = 4
	reconfigGrid    = 100 * time.Millisecond
	reconfigWCET    = 20 * time.Microsecond
	// reconfigGap is the virtual time between transactions: the driver
	// sleeps it so the few due jobs run between commits.
	reconfigGap = 2 * time.Millisecond
)

// reconfigPeriods are the long periods, all multiples of reconfigGrid.
var reconfigPeriods = []time.Duration{1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second}

func reconfigBody(x *core.ExecCtx, _ any) error { return x.Compute(reconfigWCET) }

// reconfigTData draws one task's timing: a long period and an offset on
// the grid below it.
func reconfigTData(rng *rand.Rand, name string) core.TData {
	p := reconfigPeriods[rng.Intn(len(reconfigPeriods))]
	return core.TData{Name: name, Period: p,
		ReleaseOffset: time.Duration(rng.Int63n(int64(p/reconfigGrid))) * reconfigGrid}
}

// reconfigDriver issues the transactions and keeps the expected live set.
type reconfigDriver struct {
	app     *core.App
	rng     *rand.Rand
	tr      *tracer
	parent  spanRef
	live    []string        // expected live task names
	retired map[string]bool // names retired and not re-admitted
	touched map[string]bool // names admitted or retuned
	nextDyn int
	calls   []time.Duration
	allocs  uint64 // heap bytes allocated inside the calls (traced)
	errs    []string
}

// transaction issues the i-th transaction: admit, retune or retire a
// batch, cycling in that order.
func (d *reconfigDriver) transaction(c rt.Ctx, i int) {
	var kind string
	var fn func(tx *core.Reconfig) error
	switch i % 3 {
	case 0:
		kind = "admit"
		names := make([]string, reconfigBatch)
		for k := range names {
			names[k] = fmt.Sprintf("dyn-%d", d.nextDyn)
			d.nextDyn++
		}
		fn = func(tx *core.Reconfig) error {
			for _, n := range names {
				id, err := tx.AddTask(reconfigTData(d.rng, n))
				if err != nil {
					return err
				}
				if _, err := tx.AddVersion(id, reconfigBody, nil, core.VSelect{WCET: reconfigWCET}); err != nil {
					return err
				}
			}
			return nil
		}
		defer func() {
			d.live = append(d.live, names...)
			for _, n := range names {
				d.touched[n] = true
			}
		}()
	case 1:
		kind = "retune"
		picks := d.pick(false)
		for _, n := range picks {
			d.touched[n] = true
		}
		fn = func(tx *core.Reconfig) error {
			for _, n := range picks {
				sp := d.tr.begin("core.reconfig.lookup", d.parent)
				id := tx.TaskID(n)
				d.tr.end(sp)
				if id < 0 {
					return fmt.Errorf("live task %s not found", n)
				}
				if err := tx.Retune(id, reconfigTData(d.rng, n)); err != nil {
					return err
				}
			}
			return nil
		}
	default:
		kind = "retire"
		picks := d.pick(true)
		fn = func(tx *core.Reconfig) error {
			for _, n := range picks {
				sp := d.tr.begin("core.reconfig.lookup", d.parent)
				err := tx.RemoveTaskByName(n)
				d.tr.end(sp)
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	call := d.tr.begin("core.reconfig.call", d.parent)
	staged := func(tx *core.Reconfig) error {
		sp := d.tr.begin("core.reconfig.stage", call)
		prev := d.parent
		d.parent = sp
		err := fn(tx)
		d.parent = prev
		d.tr.end(sp)
		return err
	}
	var a0 uint64
	if d.tr != nil {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	err := d.app.Reconfigure(c, staged)
	dt := time.Since(t0)
	if d.tr != nil {
		d.allocs += heapAllocs() - a0
	}
	d.tr.end(call)
	d.calls = append(d.calls, dt)
	if err != nil {
		d.errs = append(d.errs, fmt.Sprintf("transaction %d (%s): %v", i, kind, err))
	}
}

// pick draws a batch of distinct live names; remove takes them out of the
// expected live set.
func (d *reconfigDriver) pick(remove bool) []string {
	out := make([]string, 0, reconfigBatch)
	for k := 0; k < reconfigBatch; k++ {
		j := d.rng.Intn(len(d.live) - k)
		// Move the pick to the tail so later draws skip it.
		last := len(d.live) - 1 - k
		d.live[j], d.live[last] = d.live[last], d.live[j]
		out = append(out, d.live[last])
	}
	if remove {
		d.live = d.live[:len(d.live)-reconfigBatch]
		for _, n := range out {
			d.retired[n] = true
		}
	}
	return out
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func runReconfig(o repOpts) (*rep, error) {
	r := newRep()
	t0 := time.Now()
	rng := rand.New(rand.NewSource(o.seed))
	s := &spec.Spec{Name: "reconfig10k", Tasks: make([]spec.TaskSpec, reconfigTasks)}
	live := make([]string, reconfigTasks)
	for i := range s.Tasks {
		d := reconfigTData(rng, fmt.Sprintf("t-%d", i))
		live[i] = d.Name
		s.Tasks[i] = spec.TaskSpec{Name: d.Name, Period: spec.Duration(d.Period),
			Offset:   spec.Duration(d.ReleaseOffset),
			Versions: []spec.VersionSpec{{WCET: spec.Duration(reconfigWCET), Fn: reconfigBody}}}
	}
	eng := sim.NewEngine(o.seed)
	env, err := rt.NewSimEnv(eng, platform.Generic(reconfigWorkers+1), nil)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Workers:  reconfigWorkers,
		Mapping:  core.MappingGlobal,
		Priority: core.PriorityEDF,
		// Admitted and draining tasks need slots beside the live set.
		MaxTasks: reconfigTasks + 4*reconfigBatch,
	}
	app, err := s.Build(cfg, env)
	if err != nil {
		return nil, err
	}
	build := time.Since(t0)

	d := &reconfigDriver{app: app, rng: rng, tr: o.tr, live: live,
		retired: map[string]bool{}, touched: map[string]bool{}}
	ntx := int(o.horizon / reconfigGap)
	var start time.Duration
	var startErr error
	drive := o.tr.begin("drive", o.parent)
	d.parent = drive
	env.Spawn("bench-driver", rt.UnpinnedCore, func(c rt.Ctx) {
		ts := time.Now()
		startErr = app.Start(c)
		start = time.Since(ts)
		if startErr != nil {
			return
		}
		for i := 0; i < ntx; i++ {
			d.transaction(c, i)
			c.Sleep(reconfigGap)
		}
		app.Stop(c)
		app.Cleanup(c)
	})
	w0 := time.Now()
	err = eng.RunUntilIdle()
	total := time.Since(w0)
	o.tr.end(drive)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if startErr != nil {
		return nil, fmt.Errorf("start: %w", startErr)
	}
	r.setup = build + start
	r.drive = total - start
	o.tr.record("setup", o.parent, t0, r.setup)
	r.calls = d.calls

	runtime.GC()
	r.heapLive = readRuntime().heapLive
	rec := app.Recorder()
	r.fp = fingerprint{Jobs: rec.TotalJobs(), Misses: rec.TotalMisses(), Epochs: app.Epoch(), Steps: eng.Steps()}
	r.ops = r.fp.Jobs + int64(len(d.calls))

	// The gate: every transaction commits, and the live set looked up by
	// name matches the staged one.
	for _, e := range d.errs {
		r.failf("%s", e)
	}
	if app.Epoch() != ntx {
		r.failf("%d epochs committed, %d transactions issued", app.Epoch(), ntx)
	}
	// A lookup by name scans every task slot, so the check covers every
	// name a transaction touched and a fixed sample of the others.
	missing := 0
	for i, n := range d.live {
		if (d.touched[n] || i%64 == 0) && app.TaskIDByName(n) < 0 {
			missing++
		}
	}
	stale := 0
	for n := range d.retired {
		if app.TaskIDByName(n) >= 0 {
			stale++
		}
	}
	if missing > 0 || stale > 0 {
		r.failf("live set: %d staged tasks not found by name, %d retired tasks still found", missing, stale)
	}
	if r.fp.Misses > 0 {
		r.failf("%d deadline misses", r.fp.Misses)
	}
	if n := app.TaskErrors(); n > 0 {
		r.failf("%d task errors, first: %v", n, app.FirstError())
	}

	c := r.counts
	sched := app.SchedStats()
	c["steals"] = float64(sched.Steals)
	c["steal_misses"] = float64(sched.StealMisses)
	c["idle_wakes"] = float64(sched.IdleWakes)
	c["migrations"] = float64(sched.Migrations)
	c["tx"] = float64(len(d.calls))
	c["tx_alloc_bytes"] = float64(d.allocs)
	c["compute_calls"] = float64(r.fp.Jobs)
	return r, nil
}
