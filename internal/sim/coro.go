//go:build go1.23

package sim

import (
	"iter"
	"sync"
)

// worker is a runtime coroutine (iter.Pull) that executes processes on
// its own goroutine stack, one process after another. Switching into a
// worker and back is a direct coroutine switch (runtime.coroswitch): no
// channel, no trip through the Go scheduler. A process takes a worker
// on its first resume and gives it back when it finishes, so a batch of
// short-lived kernels reuses a small set of parked goroutines.
type worker struct {
	p     *Proc               // process to run on the next fresh resume
	next  func() (bool, bool) // resume; reports whether the process finished
	stop  func()              // ends an idle worker's coroutine and goroutine
	yield func(bool) bool     // suspend back to the resumer (inside the coroutine only)
}

// workerPoolMax bounds the idle workers kept for reuse: enough for the
// processes of a few large kernels running side by side, small enough
// that the parked goroutines cost little memory.
const workerPoolMax = 256

// workerPool is the free list of idle workers, shared by every kernel in
// the program. It is a plain mutex-guarded slice rather than a
// sync.Pool: a worker dropped by a pool's GC cleanup would leave its
// parked goroutine behind with nothing to stop it.
var workerPool struct {
	sync.Mutex
	free []*worker
}

// getWorker takes an idle worker from the pool or starts a new one.
func getWorker() *worker {
	workerPool.Lock()
	if n := len(workerPool.free); n > 0 {
		w := workerPool.free[n-1]
		workerPool.free[n-1] = nil
		workerPool.free = workerPool.free[:n-1]
		workerPool.Unlock()
		return w
	}
	workerPool.Unlock()
	w := new(worker)
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// putWorker returns an idle worker, suspended between processes, to the
// pool; a worker the full pool has no room for is stopped, which ends
// its goroutine.
func putWorker(w *worker) {
	workerPool.Lock()
	if len(workerPool.free) < workerPoolMax {
		workerPool.free = append(workerPool.free, w)
		workerPool.Unlock()
		return
	}
	workerPool.Unlock()
	w.stop()
}

// loop is the coroutine body: run the assigned process to completion,
// report it finished, wait for the next assignment.
func (w *worker) loop(yield func(bool) bool) {
	w.yield = yield
	for {
		w.p.run()
		w.p = nil
		if !yield(true) {
			return // stopped by putWorker
		}
	}
}

// resume switches into p's coroutine — starting it on a pooled worker if
// p has never run — and returns when p suspends (yieldToKernel) or
// finishes. A finished process's worker goes back to the pool. The
// coroutine itself never ends while the worker is in use: Proc.run
// recovers panics, and a runtime.Goexit in a process body is re-raised
// by next on the resumer, so it never returns here.
func (p *Proc) resume() {
	w := p.w
	if w == nil {
		w = getWorker()
		w.p, p.w = p, w
	}
	if finished, _ := w.next(); finished {
		p.w = nil
		putWorker(w)
	}
}

// suspend parks the running process until its worker is resumed.
func (p *Proc) suspend() { p.w.yield(false) }
