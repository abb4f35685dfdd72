package timerq

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// ref is the oracle: a sorted slice of (at, seq, id) triples with the
// firing contract the queue must meet.
type ref struct{ entries []refEntry }

type refEntry struct {
	at  int64
	seq int
	id  int
}

func (r *ref) push(e refEntry) {
	r.entries = append(r.entries, e)
	sort.Slice(r.entries, func(i, j int) bool {
		a, b := r.entries[i], r.entries[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}

func (r *ref) cancel(id int) {
	for i, e := range r.entries {
		if e.id == id {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return
		}
	}
}

func (r *ref) next() (int64, bool) {
	if len(r.entries) == 0 {
		return 0, false
	}
	return r.entries[0].at, true
}

func (r *ref) popDue(at int64) []int {
	var ids []int
	for len(r.entries) > 0 && r.entries[0].at == at {
		ids = append(ids, r.entries[0].id)
		r.entries = r.entries[1:]
	}
	return ids
}

// popAll fires every timer due at at, returning their ids in order.
func popAll(q *Queue[int], at int64) []int {
	var ids []int
	for {
		id, ok := q.PopDue(at)
		if !ok {
			return ids
		}
		ids = append(ids, id)
	}
}

// TestDifferentialVsSortedSlice drives random schedule / cancel / advance
// interleavings through the queue and the sorted-slice oracle and
// demands the identical firing order — the property the engines' trace
// byte-equivalence rests on. Deltas mix zero (due at the current
// instant), short and far offsets, and duplicates of a pending instant,
// so same-instant batches are frequent. Len must equal the live count
// after every step, and Sorted must list the oracle's entries in order.
func TestDifferentialVsSortedSlice(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		r := &ref{}
		live := make(map[int]*Timer[int])
		nextID, nextSeq := 0, 0
		now := int64(0)

		for step := 0; step < 400; step++ {
			switch op := rng.Intn(12); {
			case op < 5: // schedule
				var d int64
				switch rng.Intn(5) {
				case 0:
					d = 0
				case 1, 2:
					d = int64(rng.Intn(64))
				case 3:
					d = rng.Int63n(1 << 40)
				case 4: // duplicate a pending instant
					d = int64(rng.Intn(64))
					if len(r.entries) > 0 {
						d = r.entries[rng.Intn(len(r.entries))].at - now
					}
				}
				nextID++
				nextSeq++
				live[nextID] = q.Push(now+d, nextSeq, nextID)
				r.push(refEntry{at: now + d, seq: nextSeq, id: nextID})
			case op < 7: // cancel a random live entry
				for id, tm := range live {
					if !q.Cancel(tm) {
						t.Fatalf("seed %d step %d: Cancel(%d) found nothing", seed, step, id)
					}
					r.cancel(id)
					delete(live, id)
					break
				}
			default: // advance to the next due time and fire
				qt, qok := q.Next()
				rt, rok := r.next()
				if qok != rok || (qok && qt != rt) {
					t.Fatalf("seed %d step %d: Next queue=(%d,%v) ref=(%d,%v)", seed, step, qt, qok, rt, rok)
				}
				if !qok {
					continue
				}
				now = qt
				got, want := popAll(&q, qt), r.popDue(qt)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d at t=%d: queue fired %d entries, ref %d", seed, step, qt, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d at t=%d: firing order diverges at %d: queue id %d, ref id %d",
							seed, step, qt, i, got[i], want[i])
					}
					delete(live, got[i])
				}
			}
			if q.Len() != len(live) || q.Len() != len(r.entries) {
				t.Fatalf("seed %d step %d: Len %d, live %d, ref %d", seed, step, q.Len(), len(live), len(r.entries))
			}
			sorted := q.Sorted()
			for i, tm := range sorted {
				if e := r.entries[i]; tm.At != e.at || tm.Seq != e.seq || tm.Val != e.id {
					t.Fatalf("seed %d step %d: Sorted[%d] = (%d,%d,%d), ref (%d,%d,%d)",
						seed, step, i, tm.At, tm.Seq, tm.Val, e.at, e.seq, e.id)
				}
			}
		}
	}
}

// TestEachEnumeratesAll: after a long random history, Sorted lists every
// live timer exactly once, in (At, Seq) order, and leaves them queued:
// draining the queue afterwards fires exactly that list in that order.
func TestEachEnumeratesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q Queue[int]
	live := make(map[int]*Timer[int])
	now := int64(0)
	for id := 1; id <= 500; id++ {
		var d int64
		switch rng.Intn(3) {
		case 0:
			d = rng.Int63n(64)
		case 1:
			d = rng.Int63n(1 << 18)
		default:
			d = rng.Int63n(1 << 40)
		}
		live[id] = q.Push(now+d, id, id)
		if rng.Intn(4) == 0 { // cancel a random survivor
			for victim, tm := range live {
				if !q.Cancel(tm) {
					t.Fatalf("Cancel(%d) found nothing", victim)
				}
				delete(live, victim)
				break
			}
		}
		if rng.Intn(8) == 0 { // advance to the next due instant
			if at, ok := q.Next(); ok {
				now = at
				for _, fired := range popAll(&q, at) {
					delete(live, fired)
				}
			}
		}
	}
	sorted := q.Sorted()
	if len(sorted) != len(live) || q.Len() != len(live) {
		t.Fatalf("Sorted listed %d timers, want %d live (Len=%d)", len(sorted), len(live), q.Len())
	}
	// Firing recycles the handles, so keep the listed values.
	listed := make([]int, len(sorted))
	for i, tm := range sorted {
		if live[tm.Val] == nil || slices.Contains(listed[:i], tm.Val) {
			t.Fatalf("Sorted[%d] = %d: listed twice or not live", i, tm.Val)
		}
		listed[i] = tm.Val
		if i > 0 && less(tm, sorted[i-1]) {
			t.Fatalf("Sorted out of (At, Seq) order at %d", i)
		}
	}
	var fired []int
	for {
		at, ok := q.Next()
		if !ok {
			break
		}
		fired = append(fired, popAll(&q, at)...)
	}
	if !slices.Equal(fired, listed) {
		t.Fatalf("drain fired %v, Sorted listed %v", fired, listed)
	}
}

// TestSameInstantSeqOrder pins the FIFO tie-break: timers due at one
// instant fire in seq order whatever order they were pushed in, and
// whether they were pushed before or after an earlier instant fired.
func TestSameInstantSeqOrder(t *testing.T) {
	var q Queue[int]
	const at = 1000
	for _, seq := range []int{5, 1, 7, 3} {
		q.Push(at, seq, seq)
	}
	q.Push(10, 0, 0)
	if got := popAll(&q, 10); len(got) != 1 || got[0] != 0 {
		t.Fatalf("PopDue(10) fired %v, want [0]", got)
	}
	for _, seq := range []int{8, 2, 6, 4} {
		q.Push(at, seq, seq)
	}
	if nt, ok := q.Next(); !ok || nt != at {
		t.Fatalf("Next = (%d, %v), want (%d, true)", nt, ok, at)
	}
	if _, ok := q.PopDue(at - 1); ok {
		t.Fatal("PopDue before the earliest instant fired an entry")
	}
	got := popAll(&q, at)
	for i, id := range got {
		if id != i+1 {
			t.Fatalf("firing order %v, want seq 1..8", got)
		}
	}
	if len(got) != 8 || q.Len() != 0 {
		t.Fatalf("fired %d entries, %d left; want 8 and 0", len(got), q.Len())
	}
}

// TestCancelUnqueued pins Cancel's report on a never-queued handle and
// on handles whose entry already fired or was canceled, with other
// entries still queued so a stale index points into the heap.
func TestCancelUnqueued(t *testing.T) {
	var q Queue[int]
	if q.Cancel(&Timer[int]{}) {
		t.Fatal("Cancel of a never-queued handle on an empty queue reported true")
	}
	a := q.Push(10, 1, 1)
	q.Push(20, 2, 2)
	c := q.Push(30, 3, 3)
	if q.Cancel(&Timer[int]{}) {
		t.Fatal("Cancel of a never-queued handle reported true")
	}
	if got := popAll(&q, 10); len(got) != 1 || got[0] != 1 {
		t.Fatalf("PopDue(10) fired %v, want [1]", got)
	}
	if q.Cancel(a) {
		t.Fatal("Cancel after firing reported true")
	}
	if !q.Cancel(c) {
		t.Fatal("Cancel of a queued entry reported false")
	}
	if q.Cancel(c) {
		t.Fatal("second Cancel reported true")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	if got := popAll(&q, 20); len(got) != 1 || got[0] != 2 {
		t.Fatalf("PopDue(20) fired %v, want [2]", got)
	}
}

// TestZeroAllocSteadyState pins the zero-alloc property of the hot
// operations: once the heap and the free list are warm, schedule,
// cancel and fire allocate nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	var q Queue[int]
	const n = 64
	handles := make([]*Timer[int], n)
	now, seq := int64(0), 0
	cycle := func() {
		for i := range handles {
			seq++
			handles[i] = q.Push(now+int64(1+(i*7)%300), seq, i)
		}
		for i := 0; i < n; i += 2 { // cancel half, fire half
			q.Cancel(handles[i])
		}
		for {
			nt, ok := q.Next()
			if !ok {
				break
			}
			now = nt
			for _, ok := q.PopDue(nt); ok; _, ok = q.PopDue(nt) {
			}
		}
	}
	cycle() // warm up the heap and the free list
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state schedule/cancel/fire allocates %.1f times per cycle, want 0", allocs)
	}
}

func BenchmarkScheduleCancel(b *testing.B) {
	var q Queue[int]
	const n = 128
	handles := make([]*Timer[int], n)
	b.ReportAllocs()
	b.ResetTimer()
	seq := 0
	for i := 0; i < b.N; i++ {
		for j := range handles {
			seq++
			handles[j] = q.Push(int64(seq+j%977), seq, j)
		}
		for _, h := range handles {
			q.Cancel(h)
		}
	}
}
