package sim

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// snapModel is a deterministic model with timers, events, timeouts and a
// daemon — every piece of state the snapshot digest covers.
func snapModel(k *Kernel) *Event {
	ev := k.NewEvent("tick")
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.WaitFor(3 * Millisecond)
			p.Notify(ev)
		}
	})
	k.Spawn("listener", func(p *Proc) {
		for i := 0; i < 20; i++ {
			if !p.WaitTimeout(ev, 2*Millisecond) {
				p.WaitFor(500 * Microsecond)
			}
		}
	})
	d := k.Spawn("background", func(p *Proc) {
		for {
			p.WaitFor(7 * Millisecond)
		}
	})
	d.SetDaemon(true)
	return ev
}

// TestSnapshotDeterministicAcrossReplay: two identical kernels paused at
// the same instant must produce byte-identical snapshots, and Restore
// must accept the replayed twin.
func TestSnapshotDeterministicAcrossReplay(t *testing.T) {
	// The subtest names the kernel's one (at, seq) timer heap.
	t.Run("heap", func(t *testing.T) {
		build := func() *Kernel {
			k := NewKernel()
			snapModel(k)
			return k
		}
		for _, at := range []Time{0, 5 * Millisecond, 13 * Millisecond} {
			k1, k2 := build(), build()
			if err := k1.RunUntil(at); err != nil {
				t.Fatal(err)
			}
			cp, err := k1.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot at %v: %v", at, err)
			}
			if err := k2.RunUntil(at); err != nil {
				t.Fatal(err)
			}
			if err := k2.Restore(cp); err != nil {
				t.Errorf("Restore of replayed twin at %v: %v", at, err)
			}
			// Both must agree from here to the end.
			k1.RunUntil(100 * Millisecond)
			k2.RunUntil(100 * Millisecond)
			s1, err1 := k1.Snapshot()
			s2, err2 := k2.Snapshot()
			if err1 != nil || err2 != nil {
				t.Fatalf("final snapshots: %v / %v", err1, err2)
			}
			if !bytes.Equal(s1.State, s2.State) {
				t.Errorf("kernels diverged after restore at %v", at)
			}
			k1.Shutdown()
			k2.Shutdown()
		}
	})
}

// TestRestoreDetectsDivergence: a kernel at the wrong time or with a
// different model must be rejected with a line-level diagnosis.
func TestRestoreDetectsDivergence(t *testing.T) {
	k1 := NewKernel()
	snapModel(k1)
	if err := k1.RunUntil(6 * Millisecond); err != nil {
		t.Fatal(err)
	}
	cp, err := k1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	wrongTime := NewKernel()
	snapModel(wrongTime)
	if err := wrongTime.RunUntil(4 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := wrongTime.Restore(cp); err == nil {
		t.Error("Restore accepted a kernel at the wrong instant")
	}

	wrongModel := NewKernel()
	snapModel(wrongModel)
	wrongModel.Spawn("extra", func(p *Proc) { p.WaitFor(Millisecond) })
	if err := wrongModel.RunUntil(6 * Millisecond); err != nil {
		t.Fatal(err)
	}
	err = wrongModel.Restore(cp)
	if err == nil {
		t.Fatal("Restore accepted a kernel with a different model")
	}
	if !strings.Contains(err.Error(), "line") {
		t.Errorf("divergence error lacks a line diagnosis: %v", err)
	}
	k1.Shutdown()
	wrongTime.Shutdown()
	wrongModel.Shutdown()
}

// TestSnapshotRejectsUnquiescedKernel: snapshots only exist at RunUntil
// pauses.
func TestSnapshotRejectsUnquiescedKernel(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) {
		p.WaitFor(Millisecond)
		p.k.Fail(errors.New("injected failure"))
	})
	if err := k.RunUntil(2 * Millisecond); err == nil {
		t.Fatal("expected failure")
	}
	if _, err := k.Snapshot(); err == nil {
		t.Error("Snapshot succeeded on a stopped kernel")
	}
	k.Shutdown()
}
