package sim

// Tests for WaitFor's in-place path: a process whose own wake-up is the
// next thing to happen advances the clock itself instead of going through
// the timer queue. Each case pins the values the queued path produces,
// and checks which path was taken by counting the timers that reach the
// queue.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// onTimerHeap runs f as the "heap" subtest: the kernel's one (at, seq)
// timer heap is the queue whose pushes each case counts.
func onTimerHeap(t *testing.T, f func(t *testing.T)) {
	t.Run("heap", f)
}

// TestWaitForAloneAtLimit: a wake exactly at the RunUntil limit happens in
// place; one tick past it the timer is queued and RunUntil returns at the
// horizon with it pending.
func TestWaitForAloneAtLimit(t *testing.T) {
	onTimerHeap(t, func(t *testing.T) {
		k := NewKernel()
		defer k.Shutdown()
		var woke []string
		p := k.Spawn("p", func(p *Proc) {
			p.WaitFor(100)
			woke = append(woke, fmt.Sprintf("%d/%d timedOut=%t", p.Now(), p.k.DeltaCycle(), p.timedOut))
			p.WaitFor(1)
			woke = append(woke, fmt.Sprintf("%d/%d", p.Now(), p.k.DeltaCycle()))
		})
		if err := k.RunUntil(100); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(woke, " "); got != "100/0 timedOut=true" {
			t.Fatalf("woke %q, want the wake at the limit only", got)
		}
		if k.Now() != 100 || k.timerSeq != 2 || k.Steps != 2 || k.PendingTimers() != 1 ||
			p.State() != StateWaitTime || k.timerPushes != 1 {
			t.Fatalf("at horizon: now=%d timerSeq=%d steps=%d pending=%d state=%v pushes=%d",
				k.Now(), k.timerSeq, k.Steps, k.PendingTimers(), p.State(), k.timerPushes)
		}
		if err := k.RunUntil(101); err != nil {
			t.Fatal(err)
		}
		if len(woke) != 2 || woke[1] != "101/0" || k.Steps != 3 || p.State() != StateDone {
			t.Fatalf("after resume: woke %q steps=%d state=%v", woke, k.Steps, p.State())
		}
	})
}

// TestWaitForTieKeepsSeqOrder: a wait due at the same instant as an
// already-pending timer is queued behind it, so the earlier-sequenced
// process wakes first.
func TestWaitForTieKeepsSeqOrder(t *testing.T) {
	onTimerHeap(t, func(t *testing.T) {
		k := NewKernel()
		defer k.Shutdown()
		var order []string
		body := func(p *Proc) {
			p.WaitFor(100)
			order = append(order, fmt.Sprintf("%s@%d/%d", p.Name(), p.Now(), p.k.DeltaCycle()))
		}
		k.Spawn("first", body)
		k.Spawn("second", body)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(order, " "); got != "first@100/0 second@100/0" || k.timerPushes != 2 {
			t.Fatalf("order %q pushes=%d, want first then second through the queue", got, k.timerPushes)
		}
		if k.timerSeq != 2 || k.Steps != 4 {
			t.Fatalf("timerSeq=%d steps=%d", k.timerSeq, k.Steps)
		}
	})
}

// TestWaitForWithPendingDelta: a process runnable in the current or the
// next delta cycle runs before the clock moves, and a wait taken in place
// from a later delta cycle wakes in delta cycle 0.
func TestWaitForWithPendingDelta(t *testing.T) {
	onTimerHeap(t, func(t *testing.T) {
		k := NewKernel()
		defer k.Shutdown()
		var order []string
		mark := func(p *Proc) {
			order = append(order, fmt.Sprintf("%s@%d/%d", p.Name(), p.Now(), p.k.DeltaCycle()))
		}
		k.Spawn("parent", func(p *Proc) {
			p.Spawn("child", mark) // next delta cycle
			p.WaitFor(10)
			mark(p)
			p.YieldDelta()
			mark(p)
			p.WaitFor(10) // alone: in place
			mark(p)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := "child@0/1 parent@10/0 parent@10/1 parent@20/0"
		if got := strings.Join(order, " "); got != want || k.timerPushes != 1 || k.timerSeq != 2 {
			t.Fatalf("order %q pushes=%d timerSeq=%d, want %q with only the first wait queued",
				got, k.timerPushes, k.timerSeq, want)
		}

		k2 := NewKernel()
		defer k2.Shutdown()
		order = order[:0]
		k2.Spawn("first", func(p *Proc) {
			p.WaitFor(10) // "second" is ready in this delta cycle
			mark(p)
		})
		k2.Spawn("second", mark)
		if err := k2.Run(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(order, " "); got != "second@0/0 first@10/0" || k2.timerPushes != 1 {
			t.Fatalf("order %q pushes=%d, want second first and the wait queued", got, k2.timerPushes)
		}
	})
}

// TestWaitForAfterStopOrFail: a wait issued after Stop or Fail queues its
// timer and hands control back to the Run caller at the current time.
func TestWaitForAfterStopOrFail(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		end  func(p *Proc)
		want error
	}{
		{"stop", func(p *Proc) { p.Stop() }, nil},
		{"fail", func(p *Proc) { p.k.Fail(boom) }, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			onTimerHeap(t, func(t *testing.T) {
				k := NewKernel()
				defer k.Shutdown()
				after := false
				p := k.Spawn("p", func(p *Proc) {
					p.WaitFor(5) // alone: in place
					tc.end(p)
					p.WaitFor(10)
					after = true
				})
				if err := k.Run(); err != tc.want {
					t.Fatalf("Run = %v, want %v", err, tc.want)
				}
				if after || k.Now() != 5 || p.State() != StateWaitTime || k.PendingTimers() != 1 ||
					k.timerSeq != 2 || k.timerPushes != 1 {
					t.Fatalf("after=%t now=%d state=%v pending=%d timerSeq=%d pushes=%d",
						after, k.Now(), p.State(), k.PendingTimers(), k.timerSeq, k.timerPushes)
				}
			})
		})
	}
}

// TestWaitForInPlaceSnapshotDigest: a timed loop with interleaved timed
// notifications (some due at the same instant as the wake) reaches the
// same time, timer sequence, process state and pending timer set at every
// horizon whether its waits run in place or a second process forces each
// of them through the timer queue. (The delta cycle is left out: the
// forcer's own wake-ups add one.)
func TestWaitForInPlaceSnapshotDigest(t *testing.T) {
	onTimerHeap(t, func(t *testing.T) {
		const waits = 40
		run := func(forced bool) ([]string, int) {
			k := NewKernel()
			defer k.Shutdown()
			poke, tick := k.NewEvent("poke"), k.NewEvent("tick")
			k.Spawn("loop", func(p *Proc) {
				for i := 0; i < waits; i++ {
					if i%5 == 0 {
						p.NotifyAfter(tick, Time(7+i%3)) // a tie when i%3 == 0
					}
					p.Notify(poke) // lost unless the forcer waits on it
					p.WaitFor(7)
				}
			})
			if forced {
				// Woken into the next delta cycle before every wait, the
				// forcer keeps the loop from ever being alone.
				f := k.Spawn("forcer", func(p *Proc) {
					for {
						p.Wait(poke)
					}
				})
				f.SetDaemon(true)
			}
			var digests []string
			for h := Time(3); h <= 7*waits+10; h += 11 {
				if err := k.RunUntil(h); err != nil {
					t.Fatal(err)
				}
				cp, err := k.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				digests = append(digests, timerDigest(string(cp.State)))
			}
			return digests, k.timerPushes
		}
		alone, pushesAlone := run(false)
		forced, pushesForced := run(true)
		if pushesForced != waits+waits/5 {
			t.Fatalf("forced run pushed %d timers, want every wait and notification (%d)", pushesForced, waits+waits/5)
		}
		if pushesAlone >= pushesForced {
			t.Fatalf("solitary run pushed %d timers: the in-place path was never taken", pushesAlone)
		}
		for i := range alone {
			if alone[i] != forced[i] {
				t.Fatalf("horizon %d: digests differ\nalone:  %s\nforced: %s", i, alone[i], forced[i])
			}
		}
	})
}

// timerDigest keeps the parts of a snapshot both runs share: the kernel
// clock and timer sequence, the loop process (id 0) and the pending
// timers.
func timerDigest(state string) string {
	var keep []string
	for _, l := range strings.Split(state, "\n") {
		switch {
		case strings.HasPrefix(l, "k "):
			f := strings.Fields(l)
			keep = append(keep, f[1], f[4]) // now, timerseq
		case strings.HasPrefix(l, "p 0 "), strings.HasPrefix(l, "ti "):
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, " | ")
}
