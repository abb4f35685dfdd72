// Package timerq is the timer queue of both simulation engines, the
// goroutine kernel (internal/sim) and the run-to-completion engine
// (internal/rtc): an indexed binary min-heap of pending timers ordered by
// (at, seq).
//
// The order is total, because the engines draw seq from a counter, so the
// queue fires timers in exactly one sequence: by due time, and in
// schedule order among timers due at the same instant. The engines'
// trace byte-equivalence rests on that order.
//
// Each entry records its heap index, so Cancel removes it at once in
// O(log n) and Len is always the number of live timers. Popped and
// canceled entries go back to a free list that Push draws from, so a
// steady state of schedule, cancel and fire allocates nothing.
package timerq

import (
	"cmp"
	"slices"
)

// Timer is one queued entry: Val, due at At, fired after every entry
// with a smaller (At, Seq). The handle Push returns is valid until the
// entry is popped or canceled; after that the queue reuses it for a
// later Push, so callers must drop it.
type Timer[T any] struct {
	At  int64
	Seq int
	Val T
	i   int // index in Queue.h while queued
}

// Queue is a min-heap of timers. The zero value is an empty queue.
type Queue[T any] struct {
	h    []*Timer[T]
	free []*Timer[T]
}

// Len returns the number of queued timers.
func (q *Queue[T]) Len() int { return len(q.h) }

// Next returns the earliest due time, or false if the queue is empty.
func (q *Queue[T]) Next() (int64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Push queues v due at at, with seq as the tie-break among timers due at
// the same instant, and returns its handle.
func (q *Queue[T]) Push(at int64, seq int, v T) *Timer[T] {
	var t *Timer[T]
	if n := len(q.free); n > 0 {
		t = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		t = new(Timer[T])
	}
	t.At, t.Seq, t.Val = at, seq, v
	q.h = append(q.h, t)
	q.up(t, len(q.h)-1)
	return t
}

// PopDue removes the earliest timer if it is due at exactly at and
// returns its value; it returns false if none is. Calling it until it
// returns false fires one instant's timers in seq order.
func (q *Queue[T]) PopDue(at int64) (T, bool) {
	if len(q.h) == 0 || q.h[0].At != at {
		var zero T
		return zero, false
	}
	v := q.h[0].Val
	q.remove(0)
	return v, true
}

// Cancel removes t, reporting whether it was queued. A handle whose
// entry already fired or was canceled reports false, as long as the
// queue has not reused it.
func (q *Queue[T]) Cancel(t *Timer[T]) bool {
	if t.i >= len(q.h) || q.h[t.i] != t {
		return false
	}
	q.remove(t.i)
	return true
}

// Sorted returns every queued timer in firing order. Snapshot code uses
// it to enumerate pending timers; the entries stay queued.
func (q *Queue[T]) Sorted() []*Timer[T] {
	s := slices.Clone(q.h)
	slices.SortFunc(s, func(a, b *Timer[T]) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return s
}

func less[T any](a, b *Timer[T]) bool {
	return a.At < b.At || a.At == b.At && a.Seq < b.Seq
}

// remove deletes the entry at heap index i and recycles it.
func (q *Queue[T]) remove(i int) {
	t := q.h[i]
	last := len(q.h) - 1
	moved := q.h[last]
	q.h[last] = nil
	q.h = q.h[:last]
	if i < last && !q.down(moved, i) {
		q.up(moved, i)
	}
	var zero T
	t.Val = zero
	q.free = append(q.free, t)
}

// up places t at index i or above, shifting larger parents down.
func (q *Queue[T]) up(t *Timer[T], i int) {
	for i > 0 {
		p := (i - 1) / 2
		pt := q.h[p]
		if !less(t, pt) {
			break
		}
		q.h[i], pt.i = pt, i
		i = p
	}
	q.h[i], t.i = t, i
}

// down places t at index i or below, shifting smaller children up, and
// reports whether it moved.
func (q *Queue[T]) down(t *Timer[T], i int) bool {
	start, n := i, len(q.h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(q.h[r], q.h[c]) {
			c = r
		}
		ct := q.h[c]
		if !less(ct, t) {
			break
		}
		q.h[i], ct.i = ct, i
		i = c
	}
	q.h[i], t.i = t, i
	return i > start
}
