package sim

import (
	"bytes"
	"fmt"
)

// Checkpoint is a captured kernel state in a deterministic byte form:
// time, delta cycle, every process's scheduling state and blocking
// bookkeeping, the ready queues, and all pending timers.
//
// The goroutine kernel's processes are real goroutines, so their stacks
// cannot be serialized the way the run-to-completion engine's frame
// lists can (rtc.Session.Snapshot carries full state and Restore forks
// it directly). Here the checkpoint is a verified replay point instead:
// the simulation is deterministic, so a fresh kernel replayed to the
// same instant must land in the same state — and Restore *proves* it
// did by comparing the replayed kernel's snapshot byte-for-byte against
// the checkpoint, reporting the first divergent line if not. The
// checkpoint-equivalence suite in internal/simcheck drives this oracle
// across the policy x time-model x personality matrix.
type Checkpoint struct {
	At    Time   // capture instant
	Delta uint64 // delta-cycle counter at capture
	State []byte // canonical state encoding
}

// simSnapVersion guards the State encoding; bump on any format change.
const simSnapVersion = "simsnap/1"

// Snapshot captures the kernel's scheduler state. The kernel must be
// quiescent — paused between RunUntil calls with no process mid-step —
// and not stopped. Snapshot has no side effects.
func (k *Kernel) Snapshot() (*Checkpoint, error) {
	if k.stopped {
		return nil, fmt.Errorf("sim: cannot snapshot a stopped kernel (failure: %v)", k.failure)
	}
	if k.running != nil {
		return nil, fmt.Errorf("sim: cannot snapshot while a process is running")
	}
	if k.readyAt < len(k.ready) || len(k.next) > 0 {
		return nil, fmt.Errorf("sim: cannot snapshot mid-delta-cycle; pause at a RunUntil horizon first")
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", simSnapVersion)
	fmt.Fprintf(&b, "k now=%d delta=%d seq=%d timerseq=%d active=%d\n",
		int64(k.now), k.delta, k.seq, k.timerSeq, k.active)
	fmt.Fprintf(&b, "procs %d\n", len(k.procs))
	for _, p := range k.procs {
		fmt.Fprintf(&b, "p %d name=%q state=%q daemon=%t timedout=%t timer=%t\n",
			p.id, p.name, p.state.String(), p.daemon, p.timedOut, p.timer != nil)
		fmt.Fprintf(&b, "pw %d", len(p.waitEvents))
		for _, ev := range p.waitEvents {
			fmt.Fprintf(&b, " %q", ev.name)
		}
		b.WriteByte('\n')
	}
	timers := k.timers.Sorted()
	fmt.Fprintf(&b, "timers %d\n", len(timers))
	for _, e := range timers {
		pid := -1
		if e.Val.p != nil {
			pid = e.Val.p.id
		}
		ename := "-"
		if e.Val.e != nil {
			ename = e.Val.e.name
		}
		fmt.Fprintf(&b, "ti at=%d seq=%d p=%d e=%q\n", e.At, e.Seq, pid, ename)
	}
	return &Checkpoint{At: k.now, Delta: k.delta, State: b.Bytes()}, nil
}

// Restore verifies that this kernel — freshly built from the same model
// and replayed to cp.At — reached exactly the checkpointed state, then
// leaves it ready to resume with RunUntil. Because goroutine stacks are
// opaque, this replay-and-verify protocol is the goroutine engine's
// restore: cheap to run (the model rebuild is the cost), and any
// divergence between the replayed state and the checkpoint is reported
// with the first differing line. Use the rtc engine's Session checkpoint
// when true zero-replay forking is needed.
func (k *Kernel) Restore(cp *Checkpoint) error {
	cur, err := k.Snapshot()
	if err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if cur.At != cp.At {
		return fmt.Errorf("sim: restore: replayed kernel is at %v, checkpoint at %v", cur.At, cp.At)
	}
	if bytes.Equal(cur.State, cp.State) {
		return nil
	}
	curLines := bytes.Split(cur.State, []byte("\n"))
	cpLines := bytes.Split(cp.State, []byte("\n"))
	n := len(curLines)
	if len(cpLines) < n {
		n = len(cpLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(curLines[i], cpLines[i]) {
			return fmt.Errorf("sim: restore: state diverges at line %d: replayed %q, checkpoint %q",
				i+1, curLines[i], cpLines[i])
		}
	}
	return fmt.Errorf("sim: restore: state length differs: replayed %d lines, checkpoint %d lines",
		len(curLines), len(cpLines))
}
