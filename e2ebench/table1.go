package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vocoder"
)

// table1Want pins the outputs of the three Table 1 models at
// vocoder.Default() (163 frames): context switches, average transcoding
// delay and, for the implementation model, retired ISS instructions. The
// models are deterministic, so any difference is a wrong result.
var table1Want = struct {
	frames                          int
	specSw, archSw, implSw          uint64
	specDelay, archDelay, implDelay sim.Time
	implInsts                       uint64
}{
	frames: 163,
	specSw: 0, archSw: 329, implSw: 327,
	specDelay: 7014500, archDelay: 10202000, implDelay: 10210691,
	implInsts: 120000140,
}

// checkTable1 compares one triple of model results with the pinned
// values.
func checkTable1(spec, arch, impl vocoder.Results) error {
	w := table1Want
	var errs []error
	for _, r := range []struct {
		res   vocoder.Results
		sw    uint64
		delay sim.Time
	}{{spec, w.specSw, w.specDelay}, {arch, w.archSw, w.archDelay}, {impl, w.implSw, w.implDelay}} {
		if r.res.ContextSwitches != r.sw {
			errs = append(errs, fmt.Errorf("%s: %d context switches, want %d", r.res.Model, r.res.ContextSwitches, r.sw))
		}
		if r.res.TranscodingDelay != r.delay {
			errs = append(errs, fmt.Errorf("%s: transcoding delay %d ns, want %d", r.res.Model, r.res.TranscodingDelay, r.delay))
		}
		if len(r.res.Delays) != w.frames {
			errs = append(errs, fmt.Errorf("%s: %d frames transcoded, want %d", r.res.Model, len(r.res.Delays), w.frames))
		}
	}
	if impl.Instructions != w.implInsts {
		errs = append(errs, fmt.Errorf("implementation: %d ISS instructions, want %d", impl.Instructions, w.implInsts))
	}
	return errors.Join(errs...)
}

// table1Run is one triple: the three models back to back, each timed
// from outside the call.
type table1Run struct {
	spec, arch, impl    vocoder.Results
	tSpec, tArch, tImpl time.Duration
	err                 error
}

// runTriple runs the unscheduled, architecture (priority policy, coarse
// time model) and implementation (ISS, idle loops interpreted) models
// with no telemetry bus. With traced set it records a span per model
// under a job span.
func runTriple(e *env, job string, traced bool) (table1Run, time.Duration) {
	par := vocoder.Default()
	var r table1Run
	var errs [3]error
	start := time.Now()
	t := [4]time.Time{start}
	r.spec, _, errs[0] = vocoder.RunSpec(par)
	t[1] = time.Now()
	r.arch, _, errs[1] = vocoder.RunArch(par, core.PriorityPolicy{}, core.TimeModelCoarse)
	t[2] = time.Now()
	r.impl, _, errs[2] = vocoder.RunImpl(par, false)
	t[3] = time.Now()
	r.tSpec, r.tArch, r.tImpl = t[1].Sub(t[0]), t[2].Sub(t[1]), t[3].Sub(t[2])
	r.err = errors.Join(errs[:]...)
	if r.err == nil {
		r.err = checkTable1(r.spec, r.arch, r.impl)
	}
	if traced {
		root := e.tr.add("table1.triple", job, 0, t[0], t[3])
		e.tr.add("vocoder.RunSpec", job, root, t[0], t[1])
		e.tr.add("vocoder.RunArch", job, root, t[1], t[2])
		e.tr.add("vocoder.RunImpl", job, root, t[2], t[3])
	}
	return r, t[3].Sub(start)
}

// runTable1 is the table1 workload. Set-up is a warm-up triple; the
// window then runs triples back to back (a job is one triple, a cell one
// model run). The seed does not apply: Table 1 is one fixed model.
func runTable1(e *env) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	for i := 0; i < setupReps; i++ {
		r, d := runTriple(e, fmt.Sprintf("setup-%d", i), false)
		e.chk.record("table1 set-up triple", r.err)
		o.setup = append(o.setup, d)
	}
	var spec, arch, impl []time.Duration
	var last table1Run
	e.beginWindow()
	for i := 0; e.open(); i++ {
		traced := e.trace && i%2 == 1
		r, d := runTriple(e, fmt.Sprintf("triple-%d", i), traced)
		e.chk.record(fmt.Sprintf("table1 triple %d", i), r.err)
		if traced {
			o.tracedLat = append(o.tracedLat, d)
		} else {
			o.lat = append(o.lat, d)
		}
		if !e.trace || traced {
			spec, arch, impl = append(spec, r.tSpec), append(arch, r.tArch), append(impl, r.tImpl)
		}
		o.jobs++
		o.cells += 3
		e.finished(o.jobs)
		last = r
	}
	e.endWindow()

	tSpec, tArch, tImpl := median(spec), median(arch), median(impl)
	l := o.layer
	l["table1.unscheduled_ms"] = ms(tSpec)
	l["table1.architecture_ms"] = ms(tArch)
	l["table1.implementation_s"] = tImpl.Seconds()
	if tSpec > 0 {
		l["table1.rtos_overhead_x"] = float64(tArch) / float64(tSpec)
	}
	if d := last.impl.TranscodingDelay; d > 0 {
		diff := float64(last.arch.TranscodingDelay - d)
		if diff < 0 {
			diff = -diff
		}
		l["table1.delay_error_pct"] = diff / float64(d) * 100
	}
	sw := float64(last.arch.ContextSwitches) - float64(last.impl.ContextSwitches)
	if sw < 0 {
		sw = -sw
	}
	l["table1.switch_error"] = sw
	if n := last.arch.ContextSwitches; n > 0 {
		l["core.ns_per_switch"] = float64(tArch) / float64(n)
	}
	if n := last.impl.Instructions; n > 0 {
		l["iss.ns_per_inst"] = float64(tImpl) / float64(n)
	}
	for _, m := range perLayer {
		if v, ok := l[m.Name]; ok && !e.trace {
			o.info = append(o.info, fmt.Sprintf("%-26s %14.4f %s", m.Name, v, m.Unit))
		}
	}
	return o, nil
}
