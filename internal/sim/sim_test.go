package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestSleepAdvancesTime(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		intr, rem := p.Sleep(10 * time.Millisecond)
		if intr {
			t.Error("unexpected interrupt")
		}
		if rem != 0 {
			t.Errorf("remaining = %v, want 0", rem)
		}
		woke = p.Now()
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(10*time.Millisecond) {
		t.Errorf("woke at %v, want 10ms", woke)
	}
	if e.Now() != woke {
		t.Errorf("engine now %v, want %v", e.Now(), woke)
	}
}

func TestEventOrderingFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		e.Spawn(name, func(p *Proc) {
			p.Sleep(time.Millisecond) // all wake at the same instant
			order = append(order, p.Name())
		})
	}
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0", "p1", "p2", "p3", "p4"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
				}
			})
		}
		if err := e.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine(1)
	var got Time
	var waiter *Proc
	waiter = e.Spawn("waiter", func(p *Proc) {
		if intr := p.Park(); intr {
			t.Error("park was interrupted")
		}
		got = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Unpark(waiter)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got != Time(5*time.Millisecond) {
		t.Errorf("woken at %v, want 5ms", got)
	}
}

func TestStickyUnparkPreventsLostWakeup(t *testing.T) {
	e := NewEngine(1)
	var woke bool
	var worker *Proc
	worker = e.Spawn("worker", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // busy while the unpark arrives
		if intr := p.Park(); intr {
			t.Error("interrupted")
		}
		woke = true
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Unpark(worker) // worker still sleeping, token must stick
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Error("worker never woke: unpark token lost")
	}
}

func TestInterruptCutsSleep(t *testing.T) {
	e := NewEngine(1)
	var rem time.Duration
	var intr bool
	var at Time
	var sleeper *Proc
	sleeper = e.Spawn("sleeper", func(p *Proc) {
		intr, rem = p.Sleep(100 * time.Millisecond)
		at = p.Now()
	})
	e.Spawn("killer", func(p *Proc) {
		p.Sleep(30 * time.Millisecond)
		p.Interrupt(sleeper)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !intr {
		t.Fatal("sleep was not interrupted")
	}
	if at != Time(30*time.Millisecond) {
		t.Errorf("interrupted at %v, want 30ms", at)
	}
	if rem != 70*time.Millisecond {
		t.Errorf("remaining = %v, want 70ms", rem)
	}
}

func TestInterruptCutsCompute(t *testing.T) {
	e := NewEngine(1)
	var rem time.Duration
	var intr bool
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		intr, rem = p.Compute(10 * time.Millisecond)
	})
	e.Spawn("preempter", func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		p.Interrupt(victim)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !intr || rem != 6*time.Millisecond {
		t.Errorf("intr=%v rem=%v, want true/6ms", intr, rem)
	}
}

func TestChargeIsNotInterruptible(t *testing.T) {
	e := NewEngine(1)
	var seq []string
	var victim *Proc
	victim = e.Spawn("victim", func(p *Proc) {
		p.Charge(10 * time.Millisecond)
		seq = append(seq, fmt.Sprintf("charge-done@%v", p.Now()))
		intr, _ := p.Sleep(time.Second)
		seq = append(seq, fmt.Sprintf("sleep-intr=%v@%v", intr, p.Now()))
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		p.Interrupt(victim)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want0 := "charge-done@10ms"
	want1 := "sleep-intr=true@10ms" // pending interrupt delivered at next wait
	if len(seq) != 2 || seq[0] != want0 || seq[1] != want1 {
		t.Errorf("seq = %v, want [%s %s]", seq, want0, want1)
	}
}

func TestInterruptPendingOnRunning(t *testing.T) {
	e := NewEngine(1)
	var intr bool
	target := e.Spawn("target", func(p *Proc) {
		// Immediately receive the pending interrupt at the first wait.
		intr, _ = p.Sleep(time.Hour)
	})
	// Interrupt before the process first runs: it is in StateNew.
	e.Interrupt(target)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !intr {
		t.Error("pending interrupt not delivered at first wait")
	}
}

func TestEngineCallbacksAndStop(t *testing.T) {
	e := NewEngine(1)
	calls := 0
	e.At(Time(time.Millisecond), func() { calls++ })
	e.At(Time(2*time.Millisecond), func() { calls++; e.Stop() })
	e.At(Time(3*time.Millisecond), func() { calls++ })
	if err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (Stop must halt the run)", calls)
	}
	if e.Now() != Time(2*time.Millisecond) {
		t.Errorf("now = %v, want 2ms", e.Now())
	}
}

func TestRunUntilBound(t *testing.T) {
	e := NewEngine(1)
	var last Time
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
			last = p.Now()
		}
	})
	if err := e.Run(Time(10*time.Millisecond + 500*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if last != Time(10*time.Millisecond) {
		t.Errorf("last tick %v, want 10ms", last)
	}
}

func TestStepLimit(t *testing.T) {
	e := NewEngine(1)
	e.SetStepLimit(10)
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
		}
	})
	err := e.Run(Infinity)
	if err == nil {
		t.Fatal("expected step-limit error")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stuck", func(p *Proc) {
		p.Park() // never unparked
	})
	err := e.RunUntilIdle()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("bomber", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	err := e.RunUntilIdle()
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine(1)
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Spawn("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childAt = c.Now()
		})
		p.Sleep(5 * time.Millisecond)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if childAt != Time(2*time.Millisecond) {
		t.Errorf("child finished at %v, want 2ms", childAt)
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	e := NewEngine(1)
	var mu Mutex
	var order []string
	hold := func(name string, start, dur time.Duration) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(start)
			mu.Lock(p)
			order = append(order, p.Name())
			p.Sleep(dur)
			mu.Unlock(p)
		})
	}
	hold("a", 0, 10*time.Millisecond)
	hold("b", 1*time.Millisecond, time.Millisecond)
	hold("c", 2*time.Millisecond, time.Millisecond)
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpinMutexChargesContention(t *testing.T) {
	e := NewEngine(1)
	lock := &SpinMutex{}
	var spun time.Duration
	e.Spawn("holder", func(p *Proc) {
		lock.Lock(p)
		p.Sleep(time.Millisecond)
		lock.Unlock(p)
	})
	e.Spawn("contender", func(p *Proc) {
		p.Sleep(100 * time.Microsecond)
		spun = lock.Lock(p)
		lock.Unlock(p)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if spun < 800*time.Microsecond {
		t.Errorf("contender spun only %v, expected ~900µs of burn", spun)
	}
	spins, acquires := lock.Stats()
	if spins == 0 || acquires != 2 {
		t.Errorf("stats spins=%d acquires=%d", spins, acquires)
	}
}

func TestWaitQSignalOrder(t *testing.T) {
	e := NewEngine(1)
	var q WaitQ
	var order []string
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(p.ID()) * time.Millisecond)
			q.Wait(p)
			order = append(order, p.Name())
		})
	}
	e.Spawn("signaller", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		for i := 0; i < 3; i++ {
			q.Signal(p.Engine())
			p.Sleep(time.Millisecond)
		}
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w0", "w1", "w2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestInterruptParked(t *testing.T) {
	e := NewEngine(1)
	var intr bool
	var target *Proc
	target = e.Spawn("parked", func(p *Proc) {
		intr = p.Park()
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Interrupt(target)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !intr {
		t.Error("parked process not interrupted")
	}
}

func TestMaskedInterruptStaysPending(t *testing.T) {
	e := NewEngine(1)
	var first, second bool
	var target *Proc
	target = e.Spawn("masked", func(p *Proc) {
		p.MaskInterrupts()
		first, _ = p.Sleep(10 * time.Millisecond) // must not be interrupted
		p.UnmaskInterrupts()
		second, _ = p.Sleep(10 * time.Millisecond) // pending intr fires here
	})
	e.Spawn("sig", func(p *Proc) {
		p.Sleep(time.Millisecond)
		p.Interrupt(target)
	})
	if err := e.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if first {
		t.Error("masked sleep was interrupted")
	}
	if !second {
		t.Error("pending interrupt was lost after unmask")
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500 * time.Microsecond).String(); got != "1.5ms" {
		t.Errorf("String() = %q, want 1.5ms", got)
	}
}
