package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestShutdownReleasesGoroutines is the regression test for the batch-run
// goroutine leak: every finished simulation used to leave one parked
// goroutine per unfinished process (daemons, blocked tasks), so sweeps of
// thousands of kernels grew without bound.
func TestShutdownReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		k := NewKernel()
		e := k.NewEvent("never")
		// A daemon blocked on an event that never fires, plus a periodic
		// waiter cut off by the horizon: both goroutines must be reclaimed.
		k.Spawn("blocked", func(p *Proc) { p.Wait(e) }).SetDaemon(true)
		k.Spawn("ticker", func(p *Proc) {
			for {
				p.WaitFor(10)
			}
		}).SetDaemon(true)
		if err := k.RunUntil(100); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
	}
	waitGoroutines(t, before+5)

	// Killed processes give their worker coroutines back to a bounded
	// pool, and the pool stops the surplus: with four kernels of 128
	// daemons each shut down together, twice the bound's worth of workers
	// come back at once, yet no more than the bound may stay parked.
	for i := 0; i < 1000; i += 4 {
		var ks [4]*Kernel
		for j := range ks {
			k := NewKernel()
			e := k.NewEvent("never")
			for d := 0; d < 128; d++ {
				k.Spawn("daemon", func(p *Proc) { p.Wait(e) }).SetDaemon(true)
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			ks[j] = k
		}
		for _, k := range ks {
			k.Shutdown()
		}
	}
	waitGoroutines(t, before+workerPoolMax)
}

// waitGoroutines waits for the goroutine count to drop to at most limit.
func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= limit {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, limit %d: shutdown leaks", runtime.NumGoroutine(), limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShutdownStatesAndIdempotence(t *testing.T) {
	k := NewKernel()
	e := k.NewEvent("never")
	blocked := k.Spawn("blocked", func(p *Proc) { p.Wait(e) })
	done := k.Spawn("done", func(p *Proc) {})
	created := k.newProc("created", func(p *Proc) {}, nil) // never scheduled
	if err := k.RunUntil(10); err == nil {
		t.Fatal("want deadlock error with a blocked non-daemon process")
	}
	k.Shutdown()
	k.Shutdown() // idempotent
	if got := blocked.State(); got != StateKilled {
		t.Errorf("blocked proc state = %v, want killed", got)
	}
	if got := done.State(); got != StateDone {
		t.Errorf("finished proc state = %v, want done (Shutdown must not touch it)", got)
	}
	if got := created.State(); got != StateKilled {
		t.Errorf("never-run proc state = %v, want killed", got)
	}
	if k.Active() != 0 {
		t.Errorf("active = %d after Shutdown, want 0", k.Active())
	}
	// A shut-down kernel no longer runs.
	if err := k.Run(); err != nil {
		t.Errorf("Run after Shutdown: %v", err)
	}
}

func TestShutdownRunsDeferred(t *testing.T) {
	k := NewKernel()
	cleaned := false
	k.Spawn("p", func(p *Proc) {
		defer func() { cleaned = true }()
		p.WaitFor(1000)
	})
	if err := k.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if !cleaned {
		t.Error("deferred function of killed process did not run")
	}
}
