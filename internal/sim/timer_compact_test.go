package sim

import "testing"

// TestTimerCancelCompaction pins eager cancelation: a canceled timer
// leaves the heap at once, so a cancel-heavy run keeps the heap's length
// equal to the live timer count, not to the cancelation history.
func TestTimerCancelCompaction(t *testing.T) {
	k := NewKernel()
	defer k.Shutdown()
	ev := k.NewEvent("ev")

	const rounds = 10_000
	// background keeps a far-future timer alive so the heap never empties
	// between rounds (emptying would reset the count trivially).
	bg := k.Spawn("bg", func(p *Proc) { p.WaitFor(Forever - 1) })
	bg.SetDaemon(true)

	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			// Schedule a timeout timer, then have it canceled by the
			// notifier's wake-up: every round adds one entry and cancels it.
			if !p.WaitTimeout(ev, Second) {
				t.Error("timeout fired; expected notification")
				return
			}
			// Only the background timer is live.
			if n, live := k.timers.Len(), k.PendingTimers(); n != 1 || live != 1 {
				t.Errorf("round %d: heap holds %d entries, %d pending; want 1 and 1", i, n, live)
				return
			}
		}
	})
	k.Spawn("notifier", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Notify(ev)
			p.YieldDelta()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
