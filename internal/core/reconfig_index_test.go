package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/yasmin-rt/yasmin/internal/platform"
	"github.com/yasmin-rt/yasmin/internal/rt"
	"github.com/yasmin-rt/yasmin/internal/sim"
)

// scanTaskIDByName is the full slot scan the name index replaced: the
// highest-slot running or admitted task with the name, else the lowest-slot
// draining one. The index must agree with it after every table change.
func scanTaskIDByName(a *App, name string) TID {
	best := TID(-1)
	for i := 0; i < a.ntasks; i++ {
		t := &a.tasks[i]
		if t.d.Name != name {
			continue
		}
		switch t.state {
		case taskAdmitted, taskRunning:
			best = t.id
		case taskDraining:
			if best < 0 {
				best = t.id
			}
		}
	}
	return best
}

// checkNameIndex compares the index lookup with the scan for every name and
// checks the index chains hold exactly the non-retired slots, once each. It
// reports through t.Errorf (it runs on a simulated thread, where t.Fatal
// must not be called) and returns false on the first mismatch.
func checkNameIndex(t *testing.T, a *App, names []string, step string) bool {
	t.Helper()
	for _, n := range names {
		if got, want := a.taskIDByName(n), scanTaskIDByName(a, n); got != want {
			t.Errorf("%s: lookup %q = %d, scan = %d", step, n, got, want)
			return false
		}
	}
	indexed := map[TID]bool{}
	for name, head := range a.names {
		for id := head; id >= 0; id = a.tasks[id].nameNext {
			tk := &a.tasks[id]
			if int(id) >= a.ntasks || tk.d.Name != name || tk.state == taskRetired || indexed[id] {
				t.Errorf("%s: chain %q holds slot %d (name %q, state %s, seen %v)",
					step, name, id, tk.d.Name, tk.state, indexed[id])
				return false
			}
			indexed[id] = true
		}
	}
	for i := 0; i < a.ntasks; i++ {
		if a.tasks[i].state != taskRetired && !indexed[TID(i)] {
			t.Errorf("%s: slot %d (%q, %s) missing from the index", step, i, a.tasks[i].d.Name, a.tasks[i].state)
			return false
		}
	}
	return true
}

// TestNameIndexMatchesScan drives a seeded random sequence of declarations,
// admissions, retirements, drains, rolled-back transactions and Init, and
// checks the name index against the slot scan after every step — including
// a name re-admitted while its previous incarnation still drains.
func TestNameIndexMatchesScan(t *testing.T) {
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	probe := append(slices.Clone(names), "n0-staged", "n1-staged", "n2-staged", "drainer")
	r := newRig(t, Config{Workers: 1, Priority: PriorityEDF, MaxTasks: 32}, nil)
	rng := rand.New(rand.NewSource(3))
	declare := func(step string) bool {
		for _, n := range names[:3] {
			declSpin(t, r.app, n, ms(20), ms(1+rng.Intn(3)))
			if !checkNameIndex(t, r.app, probe, step) {
				return false
			}
		}
		// TaskDecl does not reject duplicates: two live slots share a name.
		declSpin(t, r.app, names[0], ms(40), ms(1))
		return checkNameIndex(t, r.app, probe, step+" duplicate")
	}
	admit := func(c rt.Ctx, name string, wcet time.Duration) error {
		return r.app.Reconfigure(c, func(tx *Reconfig) error {
			id, err := tx.AddTask(TData{Name: name, Period: ms(20)})
			if err != nil {
				return err
			}
			_, err = tx.AddVersion(id, spin(wcet), nil, VSelect{WCET: wcet})
			return err
		})
	}
	retire := func(c rt.Ctx, name string) error {
		return r.app.Reconfigure(c, func(tx *Reconfig) error { return tx.RemoveTaskByName(name) })
	}
	errRollback := errors.New("rolled back on purpose")
	churn := func(c rt.Ctx, phase string, steps int) bool {
		for i := 0; i < steps; i++ {
			name := names[rng.Intn(len(names))]
			var op string
			switch rng.Intn(5) {
			case 0:
				op = "admit"
				_ = admit(c, name, ms(1+rng.Intn(4))) // duplicates and overloads reject
			case 1:
				op = "retire"
				_ = retire(c, name)
			case 2:
				op = "replace" // retire and re-admit the name in one transaction
				_ = r.app.Reconfigure(c, func(tx *Reconfig) error {
					if err := tx.RemoveTaskByName(name); err != nil {
						return err
					}
					id, err := tx.AddTask(TData{Name: name, Period: ms(20)})
					if err != nil {
						return err
					}
					_, err = tx.AddVersion(id, spin(ms(1)), nil, VSelect{WCET: ms(1)})
					return err
				})
			case 3:
				op = "rollback"
				err := r.app.Reconfigure(c, func(tx *Reconfig) error {
					for _, n := range names[:1+rng.Intn(3)] {
						if _, err := tx.AddTask(TData{Name: n + "-staged", Period: ms(20)}); err != nil {
							return err
						}
						if tx.TaskID(n+"-staged") < 0 {
							return fmt.Errorf("staged %s-staged not found", n)
						}
					}
					return errRollback
				})
				if !errors.Is(err, errRollback) {
					t.Errorf("%s step %d: rollback transaction: %v", phase, i, err)
					return false
				}
			default:
				op = "sleep"
				c.Sleep(time.Duration(rng.Intn(8000)) * time.Microsecond)
			}
			if !checkNameIndex(t, r.app, probe, fmt.Sprintf("%s step %d (%s %s)", phase, i, op, name)) {
				return false
			}
		}
		return true
	}
	// drainAndReadmit removes a task mid-job and re-admits its name while
	// the old incarnation drains: the lookup must prefer the new one, and
	// the old one must leave the index once its job finishes.
	drainAndReadmit := func(c rt.Ctx, phase string) bool {
		const name = "drainer"
		if err := admit(c, name, ms(6)); err != nil {
			t.Errorf("%s: admit %s: %v", phase, name, err)
			return false
		}
		old := r.app.taskIDByName(name)
		for r.app.tasks[old].live.Load() == 0 {
			c.Sleep(ms(1))
		}
		if err := retire(c, name); err != nil {
			t.Errorf("%s: retire %s: %v", phase, name, err)
			return false
		}
		if st := r.app.tasks[old].state; st != taskDraining {
			t.Errorf("%s: %s is %s, want draining", phase, name, st)
			return false
		}
		if !checkNameIndex(t, r.app, probe, phase+" draining") {
			return false
		}
		if err := admit(c, name, ms(1)); err != nil {
			t.Errorf("%s: re-admit %s while draining: %v", phase, name, err)
			return false
		}
		if st := r.app.tasks[old].state; st != taskDraining {
			t.Errorf("%s: old %s is %s right after the re-admission, want draining", phase, name, st)
			return false
		}
		if got := r.app.taskIDByName(name); got == old || got < 0 {
			t.Errorf("%s: lookup %s = %d, want the new incarnation (old %d)", phase, name, got, old)
			return false
		}
		if !checkNameIndex(t, r.app, probe, phase+" re-admitted beside the drain") {
			return false
		}
		c.Sleep(ms(20))
		if st := r.app.tasks[old].state; st != taskRetired {
			t.Errorf("%s: old %s is %s after its job, want retired", phase, name, st)
			return false
		}
		if !checkNameIndex(t, r.app, probe, phase+" drained") {
			return false
		}
		if err := retire(c, name); err != nil {
			t.Errorf("%s: retire re-admitted %s: %v", phase, name, err)
			return false
		}
		return true
	}

	if !declare("declare") {
		return
	}
	r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		for run := 0; run < 2; run++ {
			phase := fmt.Sprintf("run %d", run)
			if err := r.app.Start(c); err != nil {
				t.Errorf("%s: Start: %v", phase, err)
				return
			}
			ok := drainAndReadmit(c, phase) && churn(c, phase, 150)
			r.app.Stop(c)
			r.app.Cleanup(c)
			if !ok || !checkNameIndex(t, r.app, probe, phase+" stopped") {
				return
			}
			r.app.Init()
			if !checkNameIndex(t, r.app, probe, phase+" Init") {
				return
			}
			if len(r.app.names) != 0 {
				t.Errorf("%s: Init left %d names indexed", phase, len(r.app.names))
				return
			}
			if !declare(phase + " redeclare") {
				return
			}
		}
	})
	if err := r.eng.Run(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
}

// graphState is the derived scheduling state of one task slot plus its
// adjacency lists as edge slots, compared by TestIncrementalCommitMatchesRebuild.
type graphState struct {
	out, in     []int
	root        bool
	effDeadline time.Duration
	staticPrio  int64
	hasIns      bool
	fastDone    bool
	fastSel     bool
	shard       int32
}

func snapshotGraph(a *App) []graphState {
	out := make([]graphState, a.ntasks)
	for i := range out {
		t := &a.tasks[i]
		g := &out[i]
		for _, e := range t.outEdges {
			g.out = append(g.out, e.idx)
		}
		for _, e := range t.inEdges {
			g.in = append(g.in, e.idx)
		}
		if t.state == taskRunning || t.state == taskAdmitted {
			g.root, g.effDeadline, g.staticPrio = t.root, t.effDeadline, t.staticPrio
			g.hasIns, g.fastDone, g.fastSel = t.hasIns, t.fastDone, t.fastSel
			g.shard = t.shard.Load()
		}
	}
	return out
}

// TestIncrementalCommitMatchesRebuild churns a task graph with random
// transactions — staged, severed and delay-token edges, root retunes,
// Disconnect and removals — and after every commit compares the adjacency
// lists and every derived field with a from-scratch rebuildGraphLocked +
// deriveTaskLocked pass over all tasks.
func TestIncrementalCommitMatchesRebuild(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 2, Mapping: MappingGlobal, Priority: PriorityDM},
		{Workers: 2, Mapping: MappingPartitioned, Priority: PriorityEDF},
	} {
		t.Run(fmt.Sprintf("%v-%v", cfg.Mapping, cfg.Priority), func(t *testing.T) {
			cfg.MaxTasks, cfg.MaxChannels = 48, 96
			testIncrementalCommit(t, cfg)
		})
	}
}

func testIncrementalCommit(t *testing.T, cfg Config) {
	r := newRig(t, cfg, nil)
	a := r.app
	rng := rand.New(rand.NewSource(11))
	wcet := us(20)
	periods := []time.Duration{ms(5), ms(10), ms(20)}
	randRoot := func(name string) TData {
		d := TData{Name: name, Period: periods[rng.Intn(len(periods))], VirtCore: rng.Intn(cfg.Workers)}
		if rng.Intn(2) == 0 {
			d.Deadline = d.Period - ms(1)
		}
		return d
	}
	var roots []TID
	for i := 0; i < 4; i++ {
		id, err := a.TaskDecl(randRoot(fmt.Sprintf("root%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.VersionDecl(id, spin(wcet), nil, VSelect{WCET: wcet}); err != nil {
			t.Fatal(err)
		}
		roots = append(roots, id)
	}
	// A consumer wired at declaration time: ChannelConnect links the
	// adjacency a commit before Start then edits.
	sink, err := a.TaskDecl(TData{Name: "sink", VirtCore: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.VersionDecl(sink, spin(wcet), nil, VSelect{WCET: wcet}); err != nil {
		t.Fatal(err)
	}
	declCh, err := a.ChannelDecl("decl", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ChannelConnect(roots[0], sink, declCh); err != nil {
		t.Fatal(err)
	}
	// oracle compares, with reconfigMu and App.mu held, the incrementally
	// maintained adjacency (and, once Start derived every task, the derived
	// state) with a from-scratch rebuild.
	oracle := func(c rt.Ctx, step string, derived bool) {
		a.reconfigMu.Lock(c)
		a.mu.Lock(c)
		got := snapshotGraph(a)
		if err := a.rebuildGraphLocked(); err != nil {
			t.Errorf("%s: rebuild: %v", step, err)
		}
		for k := 0; k < a.ntasks && derived; k++ {
			if tk := &a.tasks[k]; tk.state == taskRunning {
				if err := a.deriveTaskLocked(tk); err != nil {
					t.Errorf("%s: derive %s: %v", step, tk.d.Name, err)
				}
			}
		}
		want := snapshotGraph(a)
		a.mu.Unlock(c)
		a.reconfigMu.Unlock(c)
		for k := range want {
			if !derived {
				got[k] = graphState{out: got[k].out, in: got[k].in}
				want[k] = graphState{out: want[k].out, in: want[k].in}
			}
			if !graphStateEqual(got[k], want[k]) {
				t.Errorf("%s: slot %d (%s, %s): incremental %+v, rebuild %+v",
					step, k, a.tasks[k].d.Name, a.tasks[k].state, got[k], want[k])
			}
		}
	}
	nextName, commits := 0, 0
	// live lists the running tasks; liveEdges the alive edges.
	live := func() []TID {
		var ids []TID
		for i := 0; i < a.ntasks; i++ {
			if a.tasks[i].state == taskRunning {
				ids = append(ids, TID(i))
			}
		}
		return ids
	}
	liveEdges := func() []*edge {
		var es []*edge
		for i := 0; i < a.nedges; i++ {
			if !a.edges[i].dead {
				es = append(es, &a.edges[i])
			}
		}
		return es
	}
	// transaction stages one to three random operations.
	transaction := func(tx *Reconfig) error {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			ids := live()
			pick := func() TID { return ids[rng.Intn(len(ids))] }
			switch rng.Intn(7) {
			case 0: // a periodic root
				id, err := tx.AddTask(randRoot(fmt.Sprintf("t%d", nextName)))
				nextName++
				if err != nil {
					return err
				}
				if _, err := tx.AddVersion(id, spin(wcet), nil, VSelect{WCET: wcet}); err != nil {
					return err
				}
			case 1: // a data-activated consumer of a live task, maybe with delay tokens
				d := TData{Name: fmt.Sprintf("t%d", nextName), VirtCore: rng.Intn(cfg.Workers)}
				nextName++
				id, err := tx.AddTask(d)
				if err != nil {
					return err
				}
				if _, err := tx.AddVersion(id, spin(wcet), nil, VSelect{WCET: wcet}); err != nil {
					return err
				}
				ch, err := tx.AddChannel(d.Name+"-in", rng.Intn(3))
				if err != nil {
					return err
				}
				if err := tx.ConnectDelayed(pick(), id, ch, rng.Intn(2)); err != nil {
					return err
				}
			case 2: // an edge between live tasks (may close a cycle or feed a periodic root)
				ch, err := tx.AddChannel(fmt.Sprintf("x%d", nextName), 1)
				nextName++
				if err != nil {
					return err
				}
				if err := tx.ConnectDelayed(pick(), pick(), ch, rng.Intn(2)); err != nil {
					return err
				}
			case 3: // Disconnect an alive edge
				if es := liveEdges(); len(es) > 0 {
					e := es[rng.Intn(len(es))]
					if err := tx.Disconnect(e.src, e.dst, e.ch); err != nil {
						return err
					}
				}
			case 4: // retune a root (period, deadline, virtual core)
				id := pick()
				if a.tasks[id].d.Period > 0 {
					d := randRoot(a.tasks[id].d.Name)
					if err := tx.Retune(id, d); err != nil {
						return err
					}
				}
			case 5: // remove a live task (may orphan a consumer)
				if len(ids) > 2 {
					if err := tx.RemoveTask(pick()); err != nil {
						return err
					}
				}
			default: // retune a data-activated task's own deadline
				id := pick()
				if a.tasks[id].d.Period == 0 {
					d := a.tasks[id].d
					d.Deadline = time.Duration(rng.Intn(2)) * ms(3)
					if err := tx.Retune(id, d); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	r.env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		err := a.Reconfigure(c, func(tx *Reconfig) error {
			ch, err := tx.AddChannel("moved", 1)
			if err != nil {
				return err
			}
			if err := tx.Connect(roots[2], sink, ch); err != nil {
				return err
			}
			return tx.Disconnect(roots[0], sink, declCh)
		})
		if err != nil {
			t.Errorf("commit before Start: %v", err)
			return
		}
		oracle(c, "commit before Start", false)
		if err := a.Start(c); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		for i := 0; i < 300; i++ {
			c.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
			if err := a.Reconfigure(c, transaction); err != nil {
				continue // rejected: nothing changed
			}
			commits++
			oracle(c, fmt.Sprintf("commit %d", i), true)
			if t.Failed() {
				break
			}
		}
		a.Stop(c)
		a.Cleanup(c)
	})
	if err := r.eng.Run(sim.Time(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if commits < 100 {
		t.Errorf("only %d of 300 transactions committed; the churn is too weak", commits)
	}
}

func graphStateEqual(x, y graphState) bool {
	return slices.Equal(x.out, y.out) && slices.Equal(x.in, y.in) &&
		x.root == y.root && x.effDeadline == y.effDeadline && x.staticPrio == y.staticPrio &&
		x.hasIns == y.hasIns && x.fastDone == y.fastDone && x.fastSel == y.fastSel && x.shard == y.shard
}

// retuneAllocBytes starts an app with n live long-period tasks and returns
// the heap bytes one 32-task retune transaction allocates (the smallest of
// several after the first, which sizes the scratch), and the size of the
// schedView it publishes.
func retuneAllocBytes(t *testing.T, n int) (tx, view uint64) {
	eng := sim.NewEngine(1)
	env, err := rt.NewSimEnv(eng, platform.Generic(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{Workers: 4, Priority: PriorityEDF, MaxTasks: n + 64, MaxPendingJobs: 256}, env)
	if err != nil {
		t.Fatal(err)
	}
	// Every task first releases at 10 s: the measured transactions run on
	// an idle schedule, so nothing but the transaction allocates.
	for i := 0; i < n; i++ {
		id, err := a.TaskDecl(TData{Name: fmt.Sprintf("t%d", i), Period: time.Duration(1+i%10) * time.Second,
			ReleaseOffset: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.VersionDecl(id, spin(us(20)), nil, VSelect{WCET: us(20)}); err != nil {
			t.Fatal(err)
		}
	}
	retune := func(tx *Reconfig) error {
		for k := 0; k < 32; k++ {
			name := fmt.Sprintf("t%d", k*(n/32))
			id := tx.TaskID(name)
			if id < 0 {
				return fmt.Errorf("%s not found", name)
			}
			d := tx.a.tasks[id].d
			d.Period = time.Duration(1+(int(d.Period/time.Second)%10)) * time.Second
			if err := tx.Retune(id, d); err != nil {
				return err
			}
		}
		return nil
	}
	tx = ^uint64(0)
	env.Spawn("main", rt.UnpinnedCore, func(c rt.Ctx) {
		if err := a.Start(c); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		var ms0, ms1 runtime.MemStats
		for i := 0; i < 6; i++ {
			runtime.ReadMemStats(&ms0)
			err := a.Reconfigure(c, retune)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				t.Errorf("retune %d: %v", i, err)
				break
			}
			if i > 0 { // the first transaction sizes the scratch
				tx = min(tx, ms1.TotalAlloc-ms0.TotalAlloc)
			}
		}
		a.Stop(c)
		a.Cleanup(c)
	})
	if err := eng.Run(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	v := a.view.Load()
	view = uint64(8*len(v.live) + 4*len(v.shard))
	return tx, view
}

// TestReconfigureAllocsIndependentOfLiveTasks guards the allocation-free
// transaction path: a 32-task retune allocates the same at 1k and 10k live
// tasks, but for the published schedView snapshot, which is the one
// per-commit copy that grows with the task table.
func TestReconfigureAllocsIndependentOfLiveTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-task app")
	}
	small, smallView := retuneAllocBytes(t, 1000)
	large, largeView := retuneAllocBytes(t, 10000)
	// Size classes and page rounding of the view's two arrays stay within
	// a few KiB.
	const slack = 8 << 10
	growth := int64(large) - int64(small)
	viewGrowth := int64(largeView) - int64(smallView)
	t.Logf("32-task retune: %d B at 1k live tasks, %d B at 10k; schedView %d B -> %d B",
		small, large, smallView, largeView)
	if growth > viewGrowth+slack || growth < viewGrowth-slack {
		t.Errorf("retune allocation grew %d B from 1k to 10k live tasks; only the schedView's %d B (±%d) may",
			growth, viewGrowth, slack)
	}
}
