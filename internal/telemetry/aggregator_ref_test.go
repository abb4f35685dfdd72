package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// refAggregator is the map-keyed Aggregator the fast one replaced: every
// event resolves its PE and task by name through a map, and per-CPU state
// lives in maps keyed by slot. It is kept as the oracle for
// TestAggregatorMatchesReference.
type refAggregator struct {
	end    sim.Time
	hasEnd bool
	pes    map[string]*refPE
	order  []string
}

func newRefAggregator() *refAggregator {
	return &refAggregator{pes: map[string]*refPE{}}
}

type refPE struct {
	name        string
	first, last sim.Time
	started     bool

	dispatches  uint64
	ctxSwitches uint64
	preemptions uint64
	irqEnters   uint64
	irqReturns  uint64

	busy, idle sim.Time
	curTask    map[int]string   // CPU slot -> running task ("" = idle)
	lastRun    map[int]string   // CPU slot -> last non-idle task
	lastAt     map[int]sim.Time // CPU slot -> last occupancy change

	readyAt   sim.Time
	readyLen  int64
	readyArea int64
	readyMax  int64
	readySeen bool

	tasks     map[string]*refTask
	taskOrder []string
}

type refTask struct {
	name        string
	dispatches  uint64
	preemptions uint64
	releases    int
	completions int

	releaseAt   sim.Time
	haveRelease bool
	resp        []sim.Time

	blocked     bool
	blockAt     sim.Time
	blockReason core.BlockReason
	blocking    sim.Time

	busy sim.Time
}

func (a *refAggregator) pe(name string) *refPE {
	p, ok := a.pes[name]
	if !ok {
		p = &refPE{
			name:    name,
			curTask: map[int]string{},
			lastRun: map[int]string{},
			lastAt:  map[int]sim.Time{},
			tasks:   map[string]*refTask{},
		}
		a.pes[name] = p
		a.order = append(a.order, name)
	}
	return p
}

func (p *refPE) task(name string) *refTask {
	t, ok := p.tasks[name]
	if !ok {
		t = &refTask{name: name}
		p.tasks[name] = t
		p.taskOrder = append(p.taskOrder, name)
	}
	return t
}

func (a *refAggregator) SetEnd(t sim.Time) { a.end, a.hasEnd = t, true }

func (a *refAggregator) Emit(e Event) {
	if e.PE == "" {
		return
	}
	p := a.pe(e.PE)
	if !p.started {
		p.first, p.started = e.At, true
	}
	if e.At > p.last {
		p.last = e.At
	}
	switch e.Kind {
	case KindDispatch:
		if last, ok := p.lastAt[e.CPU]; ok {
			dt := e.At - last
			if cur := p.curTask[e.CPU]; cur != "" {
				p.busy += dt
				p.task(cur).busy += dt
			} else {
				p.idle += dt
			}
		}
		p.curTask[e.CPU] = e.Task
		p.lastAt[e.CPU] = e.At
		if e.Task != "" {
			p.dispatches++
			p.task(e.Task).dispatches++
			if lr, ok := p.lastRun[e.CPU]; ok && lr != e.Task {
				p.ctxSwitches++
			}
			p.lastRun[e.CPU] = e.Task
		}
	case KindPreempt:
		p.preemptions++
		p.task(e.Task).preemptions++
	case KindRelease:
		t := p.task(e.Task)
		t.releases++
		t.releaseAt = e.At
		t.haveRelease = true
	case KindBlock:
		t := p.task(e.Task)
		t.blocked = true
		t.blockAt = e.At
		t.blockReason = e.Reason
		if (e.Reason == core.BlockPeriod || e.Reason == core.BlockSleep) && t.haveRelease {
			t.complete(e.At)
		}
	case KindUnblock:
		t := p.task(e.Task)
		if t.blocked {
			switch t.blockReason {
			case core.BlockEvent, core.BlockMutex, core.BlockChildren:
				t.blocking += e.At - t.blockAt
			}
			t.blocked = false
		}
	case KindState:
		if e.To == core.TaskTerminated || e.To == core.TaskKilled {
			t := p.task(e.Task)
			if t.haveRelease {
				t.complete(e.At)
			}
		}
	case KindIRQEnter:
		p.irqEnters++
	case KindIRQReturn:
		p.irqReturns++
	case KindReadyLen:
		if p.readySeen {
			p.readyArea += int64(e.At-p.readyAt) * p.readyLen
		}
		p.readyAt = e.At
		p.readyLen = e.Arg
		p.readySeen = true
		if e.Arg > p.readyMax {
			p.readyMax = e.Arg
		}
	}
}

func (t *refTask) complete(at sim.Time) {
	t.completions++
	t.resp = append(t.resp, at-t.releaseAt)
	t.haveRelease = false
}

func (a *refAggregator) Report() *Report {
	r := &Report{}
	for _, name := range a.order {
		p := a.pes[name]
		end := p.last
		if a.hasEnd && a.end > end {
			end = a.end
		}
		pr := PEReport{
			PE:              p.name,
			Span:            end - p.first,
			Dispatches:      p.dispatches,
			ContextSwitches: p.ctxSwitches,
			Preemptions:     p.preemptions,
			IRQEnters:       p.irqEnters,
			IRQReturns:      p.irqReturns,
			Busy:            p.busy,
			Idle:            p.idle,
			ReadyMax:        p.readyMax,
		}
		trailingBusy := map[string]sim.Time{}
		for cpu, last := range p.lastAt {
			dt := end - last
			if cur := p.curTask[cpu]; cur != "" {
				pr.Busy += dt
				trailingBusy[cur] += dt
			} else {
				pr.Idle += dt
			}
		}
		area := p.readyArea
		if p.readySeen {
			area += int64(end-p.readyAt) * p.readyLen
		}
		pr.readyArea = float64(area)
		if pr.Span > 0 {
			pr.ReadyMean = pr.readyArea / float64(pr.Span)
			pr.Utilization = float64(pr.Busy) / float64(pr.Span)
		}
		for _, tn := range p.taskOrder {
			t := p.tasks[tn]
			tr := TaskReport{
				Task:        t.name,
				Dispatches:  t.dispatches,
				Preemptions: t.preemptions,
				Releases:    t.releases,
				Jobs:        t.completions,
				Blocking:    t.blocking,
				Busy:        t.busy + trailingBusy[t.name],
				RespSamples: append([]sim.Time(nil), t.resp...),
			}
			tr.fillRespStats()
			if pr.Span > 0 {
				tr.Utilization = float64(tr.Busy) / float64(pr.Span)
			}
			pr.Tasks = append(pr.Tasks, tr)
		}
		r.PEs = append(r.PEs, pr)
	}
	return r
}

// randomStream draws a seeded event stream over several PEs: SMP CPU
// slots 0–3 (and, rarely, slot numbers outside the direct range), up to
// 16 tasks per PE, idle dispatches, markers, events with an empty PE, IRQs, every block reason
// and terminal as well as non-terminal state changes. Time never goes
// backwards but often repeats.
func randomStream(rng *rand.Rand) []Event {
	pes := []string{"cpu0", "cpu1", "dsp"}[:1+rng.Intn(3)]
	tasks := make([]string, 1+rng.Intn(16))
	for i := range tasks {
		tasks[i] = fmt.Sprintf("t%d", i)
	}
	kinds := []Kind{KindRelease, KindDispatch, KindDispatch, KindDispatch, KindPreempt,
		KindBlock, KindBlock, KindUnblock, KindUnblock, KindState, KindIRQEnter,
		KindIRQReturn, KindReadyLen, KindMarker, KindFaultInject}
	states := []core.TaskState{core.TaskReady, core.TaskRunning, core.TaskWaitingEvent,
		core.TaskSuspended, core.TaskTerminated, core.TaskKilled}
	var at sim.Time
	evs := make([]Event, 50+rng.Intn(400))
	for i := range evs {
		if rng.Intn(3) > 0 {
			at += sim.Time(rng.Intn(50))
		}
		e := Event{At: at, Kind: kinds[rng.Intn(len(kinds))], CPU: rng.Intn(4)}
		if rng.Intn(10) > 0 {
			e.PE = pes[rng.Intn(len(pes))]
		}
		if rng.Intn(40) == 0 {
			e.CPU = []int{-1, maxDirectCPU, 1 << 30}[rng.Intn(3)]
		}
		if e.Kind != KindDispatch || rng.Intn(5) > 0 {
			e.Task = tasks[rng.Intn(len(tasks))]
		}
		switch e.Kind {
		case KindBlock, KindUnblock:
			e.Reason = core.BlockReason(rng.Intn(int(core.BlockSleep) + 1))
		case KindState:
			e.From = states[rng.Intn(len(states))]
			e.To = states[rng.Intn(len(states))]
		case KindReadyLen, KindMarker:
			e.Arg = int64(rng.Intn(6))
		case KindIRQEnter, KindIRQReturn:
			e.Other = "irq"
		}
		evs[i] = e
	}
	return evs
}

// TestAggregatorMatchesReference is the differential test of the fast
// Aggregator against refAggregator: on seeded random streams the
// marshalled reports must be byte-identical, both mid-stream and at the
// end (with and without SetEnd), and the unexported merge state must
// agree too.
func TestAggregatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20030310))
	for iter := 0; iter < 500; iter++ {
		evs := randomStream(rng)
		fast, ref := NewAggregator(), newRefAggregator()
		cut := rng.Intn(len(evs))
		for i, e := range evs {
			if i == cut {
				compareReports(t, iter, "mid-stream", fast.Report(), ref.Report())
			}
			fast.Emit(e)
			ref.Emit(e)
		}
		if rng.Intn(2) == 0 {
			end := evs[len(evs)-1].At + sim.Time(rng.Intn(100))
			fast.SetEnd(end)
			ref.SetEnd(end)
		}
		compareReports(t, iter, "final", fast.Report(), ref.Report())
		if t.Failed() {
			return
		}
	}
}

func compareReports(t *testing.T, iter int, at string, got, want *Report) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Errorf("stream %d %s: report differs from reference\n got: %s\nwant: %s", iter, at, gb, wb)
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stream %d %s: unexported report state differs from reference", iter, at)
	}
}
