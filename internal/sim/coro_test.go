package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// killRec records, for the kill matrix, which workers a kernel's
// processes ran on and the order in which their deferred functions ran.
type killRec struct {
	workers map[*worker]bool
	defers  []string
}

// body wraps fn so the process records its worker and, on the way out,
// its deferred function.
func (r *killRec) body(fn Func) Func {
	return func(p *Proc) {
		r.workers[p.w] = true
		defer func() { r.defers = append(r.defers, p.Name()) }()
		fn(p)
	}
}

// runRecovering runs k and returns the panic it re-raised, if any.
func runRecovering(k *Kernel) (panicked interface{}) {
	defer func() { panicked = recover() }()
	_ = k.Run() // returns only if no process panicked; the caller checks for that
	return nil
}

// TestGoexitEndsRunCaller pins what the Proc doc promises: a
// runtime.Goexit in a process body (t.FailNow, for one) runs the body's
// deferred functions and then ends the goroutine that called Run, instead
// of ending only the process.
func TestGoexitEndsRunCaller(t *testing.T) {
	k := NewKernel()
	var deferred, returned bool
	k.Spawn("exiter", func(p *Proc) {
		defer func() { deferred = true }()
		p.WaitFor(1)
		runtime.Goexit()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = k.Run()
		returned = true
	}()
	<-done
	if !deferred {
		t.Error("the process body's deferred function did not run")
	}
	if returned {
		t.Error("Run returned; want Goexit to end the Run caller's goroutine")
	}
}

// TestKillMatrix kills processes in every blocking primitive, before they
// start, from themselves, from a child, and through Shutdown after each
// way a run can end. Every case checks the deferred functions that ran
// (and their order), the final states, that no join count or live count
// is left over, that the worker pool holds each idle worker once, and
// that the next kernel runs on a worker the killed processes gave back.
func TestKillMatrix(t *testing.T) {
	cases := []struct {
		name   string
		run    func(t *testing.T, k *Kernel, r *killRec)
		states map[string]State
		defers []string
	}{
		{
			name: "never-started",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				k.Spawn("root", r.body(func(p *Proc) {
					c := p.Spawn("child", r.body(func(*Proc) { t.Error("killed child ran") }))
					p.Kill(c)
					if c.w != nil {
						t.Error("never-started process took a worker")
					}
				}))
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			},
			states: map[string]State{"root": StateDone, "child": StateKilled},
			defers: []string{"root"},
		},
		{
			name: "wait",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				e := k.NewEvent("e")
				victim := k.Spawn("victim", r.body(func(p *Proc) {
					p.Wait(e)
					t.Error("victim resumed past Wait")
				}))
				k.Spawn("killer", r.body(func(p *Proc) {
					p.WaitFor(5)
					p.Kill(victim)
					if len(e.waiters) != 0 {
						t.Errorf("event keeps %d waiters after kill", len(e.waiters))
					}
				}))
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			},
			states: map[string]State{"victim": StateKilled, "killer": StateDone},
			defers: []string{"victim", "killer"},
		},
		{
			name: "waitfor",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				victim := k.Spawn("victim", r.body(func(p *Proc) {
					p.WaitFor(1000)
					t.Error("victim resumed past WaitFor")
				}))
				k.Spawn("killer", r.body(func(p *Proc) {
					p.WaitFor(5)
					p.Kill(victim)
					if n := k.PendingTimers(); n != 0 {
						t.Errorf("%d timers pending after kill", n)
					}
				}))
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if k.Now() != 5 {
					t.Errorf("run ended at %v, want 5", k.Now())
				}
			},
			states: map[string]State{"victim": StateKilled, "killer": StateDone},
			defers: []string{"victim", "killer"},
		},
		{
			name: "waittimeout",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				e := k.NewEvent("e")
				victim := k.Spawn("victim", r.body(func(p *Proc) {
					p.WaitTimeout(e, 1000)
					t.Error("victim resumed past WaitTimeout")
				}))
				k.Spawn("killer", r.body(func(p *Proc) {
					p.WaitFor(10)
					p.Kill(victim)
					if n := k.PendingTimers(); n != 0 || len(e.waiters) != 0 {
						t.Errorf("after kill: %d timers, %d waiters; want none", n, len(e.waiters))
					}
					p.Notify(e)
				}))
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			},
			states: map[string]State{"victim": StateKilled, "killer": StateDone},
			defers: []string{"victim", "killer"},
		},
		{
			name: "par",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				e := k.NewEvent("e")
				victim := k.Spawn("victim", r.body(func(p *Proc) {
					p.ParNamed([]string{"c1", "c2"},
						r.body(func(c *Proc) { c.Wait(e) }),
						r.body(func(c *Proc) { c.WaitFor(1000) }))
					t.Error("victim resumed past Par")
				}))
				k.Spawn("killer", r.body(func(p *Proc) {
					p.WaitFor(10)
					p.Kill(victim)
					if victim.pendingKids != 0 || k.Active() != 1 {
						t.Errorf("after kill: pending kids %d, active %d; want 0, 1", victim.pendingKids, k.Active())
					}
				}))
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			},
			states: map[string]State{"victim": StateKilled, "c1": StateKilled, "c2": StateKilled, "killer": StateDone},
			defers: []string{"c1", "c2", "victim", "killer"},
		},
		{
			name: "self",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				k.Spawn("self", r.body(func(p *Proc) {
					p.WaitFor(1)
					p.Kill(p)
					t.Error("execution continued past self-kill")
				}))
				k.Spawn("after", r.body(func(p *Proc) { p.WaitFor(2) }))
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if k.Now() != 2 {
					t.Errorf("run ended at %v, want 2", k.Now())
				}
			},
			states: map[string]State{"self": StateKilled, "after": StateDone},
			defers: []string{"self", "after"},
		},
		{
			// The killer is one of its target's children, so the
			// children-first recursion reaches it before the target and
			// unwinds it as a self-kill: the parent survives, and its Par
			// join completes.
			name: "child-kills-parent",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				joined := false
				k.Spawn("parent", r.body(func(p *Proc) {
					p.ParNamed([]string{"child"}, r.body(func(c *Proc) {
						c.WaitFor(1)
						c.Kill(p)
						t.Error("child continued past killing its parent")
					}))
					joined = true
				}))
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if !joined {
					t.Error("parent did not return from Par")
				}
			},
			states: map[string]State{"parent": StateDone, "child": StateKilled},
			defers: []string{"child", "parent"},
		},
		{
			name: "shutdown-after-horizon",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				e := k.NewEvent("never")
				k.Spawn("ticker", r.body(func(p *Proc) {
					for {
						p.WaitFor(10)
					}
				}))
				k.Spawn("waiter", r.body(func(p *Proc) { p.Wait(e) }))
				k.Spawn("par", r.body(func(p *Proc) {
					p.ParNamed([]string{"par-child"}, r.body(func(c *Proc) { c.WaitTimeout(e, 1000) }))
				}))
				if err := k.RunUntil(25); err != nil {
					t.Fatal(err)
				}
				k.Spawn("late", r.body(func(*Proc) { t.Error("late root ran") }))
			},
			states: map[string]State{"ticker": StateKilled, "waiter": StateKilled, "par": StateKilled,
				"par-child": StateKilled, "late": StateKilled},
			defers: []string{"ticker", "waiter", "par-child", "par"},
		},
		{
			name: "shutdown-after-deadlock",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				e := k.NewEvent("never")
				k.Spawn("a", r.body(func(p *Proc) { p.Wait(e) }))
				k.Spawn("b", r.body(func(p *Proc) {
					p.WaitFor(3)
					p.Wait(e)
				}))
				var dl *DeadlockError
				if err := k.Run(); !errors.As(err, &dl) {
					t.Fatalf("Run = %v, want a deadlock", err)
				}
			},
			states: map[string]State{"a": StateKilled, "b": StateKilled},
			defers: []string{"a", "b"},
		},
		{
			name: "shutdown-after-panic",
			run: func(t *testing.T, k *Kernel, r *killRec) {
				e := k.NewEvent("never")
				k.Spawn("waiter", r.body(func(p *Proc) { p.Wait(e) }))
				k.Spawn("bomb", r.body(func(p *Proc) {
					p.WaitFor(5)
					panic("boom")
				}))
				if v := runRecovering(k); v != "boom" {
					t.Fatalf("Run re-raised %v, want boom", v)
				}
			},
			states: map[string]State{"waiter": StateKilled, "bomb": StateDone},
			defers: []string{"bomb", "waiter"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &killRec{workers: map[*worker]bool{}}
			k := NewKernel()
			tc.run(t, k, r)
			procs := append([]*Proc(nil), k.Procs()...)
			k.Shutdown()

			if k.Active() != 0 {
				t.Errorf("active = %d after Shutdown, want 0", k.Active())
			}
			got := map[string]State{}
			for _, p := range procs {
				got[p.Name()] = p.State()
				if p.pendingKids != 0 {
					t.Errorf("%s: %d children still counted as pending", p.Name(), p.pendingKids)
				}
			}
			if !reflect.DeepEqual(got, tc.states) {
				t.Errorf("final states = %v, want %v", got, tc.states)
			}
			if !reflect.DeepEqual(r.defers, tc.defers) {
				t.Errorf("deferred functions ran for %v, want %v", r.defers, tc.defers)
			}
			checkWorkerPool(t)

			var reused *worker
			k2 := NewKernel()
			k2.Spawn("next", func(p *Proc) { reused = p.w })
			if err := k2.Run(); err != nil {
				t.Fatal(err)
			}
			k2.Shutdown()
			if !r.workers[reused] {
				t.Error("the next kernel did not reuse a worker the killed processes gave back")
			}
		})
	}
}

// checkWorkerPool asserts the pool invariants: within its bound, each
// idle worker listed once, none still assigned a process.
func checkWorkerPool(t *testing.T) {
	t.Helper()
	workerPool.Lock()
	defer workerPool.Unlock()
	if n := len(workerPool.free); n > workerPoolMax {
		t.Errorf("pool holds %d workers, bound %d", n, workerPoolMax)
	}
	seen := map[*worker]bool{}
	for _, w := range workerPool.free {
		if seen[w] {
			t.Error("worker pooled twice")
		}
		seen[w] = true
		if w.p != nil {
			t.Errorf("pooled worker still assigned %s", w.p)
		}
	}
}

// traceModel runs a small seeded model — timeouts racing notifications,
// Par joins, a kill, a daemon left for Shutdown — and returns its trace.
func traceModel(seed int) string {
	var b strings.Builder
	logf := func(p *Proc, what string) { fmt.Fprintf(&b, "%v %s %s\n", p.Now(), p.Name(), what) }
	k := NewKernel()
	e := k.NewEvent("e")
	for i := 0; i < 2+seed%5; i++ {
		d := Time(1 + (seed*7+i*3)%11)
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 4; j++ {
				if p.WaitTimeout(e, d) {
					logf(p, "event")
				} else {
					logf(p, "timeout")
				}
			}
			p.Par(
				func(c *Proc) { c.WaitFor(d); logf(c, "joined") },
				func(c *Proc) { c.YieldDelta(); logf(c, "joined") })
			logf(p, "done")
		})
	}
	k.Spawn("notifier", func(p *Proc) {
		for j := 0; j < 6; j++ {
			p.WaitFor(Time(2 + (seed+j)%5))
			p.Notify(e)
			logf(p, "notify")
		}
	})
	victim := k.Spawn("victim", func(p *Proc) {
		defer logf(p, "killed")
		p.Wait(k.NewEvent("never"))
	})
	k.Spawn("killer", func(p *Proc) {
		p.WaitFor(Time(3 + seed%4))
		p.Kill(victim)
		logf(p, "kill")
	})
	k.Spawn("daemon", func(p *Proc) {
		defer logf(p, "shutdown")
		for {
			p.WaitFor(Time(5 + seed%3))
		}
	}).SetDaemon(true)
	if err := k.RunUntil(60); err != nil {
		fmt.Fprintf(&b, "err %v\n", err)
	}
	k.Shutdown()
	return b.String()
}

// TestConcurrentKernelsMatchSequential runs 200 kernels on each of 8
// goroutines at once — workers migrate between them through the shared
// pool — and requires every trace to equal the sequential run's. Run it
// under -race.
func TestConcurrentKernelsMatchSequential(t *testing.T) {
	const kernels, goroutines = 200, 8
	want := make([]string, kernels)
	for i := range want {
		want[i] = traceModel(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < kernels; i++ {
				j := (i + g*kernels/goroutines) % kernels
				if got := traceModel(j); got != want[j] {
					t.Errorf("goroutine %d, model %d: trace differs from the sequential run\n got:\n%s\nwant:\n%s", g, j, got, want[j])
					return
				}
			}
		}()
	}
	wg.Wait()
}
