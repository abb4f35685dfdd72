package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/sim"
	"repro/internal/taskset"
	"repro/internal/vocoder"
)

// pinnedTriple returns model results equal to the pinned Table 1 values.
func pinnedTriple() (spec, arch, impl vocoder.Results) {
	w := table1Want
	mk := func(model string, sw uint64, d sim.Time) vocoder.Results {
		return vocoder.Results{Model: model, ContextSwitches: sw, TranscodingDelay: d, Delays: make([]sim.Time, w.frames)}
	}
	spec = mk("unscheduled", w.specSw, w.specDelay)
	arch = mk("architecture", w.archSw, w.archDelay)
	impl = mk("implementation", w.implSw, w.implDelay)
	impl.Instructions = w.implInsts
	return
}

func TestTable1CheckFailsOnCorruptedOutput(t *testing.T) {
	spec, arch, impl := pinnedTriple()
	if err := checkTable1(spec, arch, impl); err != nil {
		t.Fatalf("pinned values rejected: %v", err)
	}
	corruptions := map[string]func(s, a, i *vocoder.Results){
		"spec switches":   func(s, a, i *vocoder.Results) { s.ContextSwitches++ },
		"arch switches":   func(s, a, i *vocoder.Results) { a.ContextSwitches-- },
		"impl switches":   func(s, a, i *vocoder.Results) { i.ContextSwitches++ },
		"spec delay":      func(s, a, i *vocoder.Results) { s.TranscodingDelay++ },
		"arch delay":      func(s, a, i *vocoder.Results) { a.TranscodingDelay-- },
		"impl delay":      func(s, a, i *vocoder.Results) { i.TranscodingDelay += 1000 },
		"frames":          func(s, a, i *vocoder.Results) { a.Delays = a.Delays[1:] },
		"iss instruction": func(s, a, i *vocoder.Results) { i.Instructions-- },
	}
	for name, corrupt := range corruptions {
		s, a, i := pinnedTriple()
		corrupt(&s, &a, &i)
		if checkTable1(s, a, i) == nil {
			t.Errorf("%s: corrupted triple passed the check", name)
		}
	}
}

// TestCampaignChecksFailOnCorruptedOutput runs one real cold job and one
// warm job, checks they pass, then corrupts each checked output.
func TestCampaignChecksFailOnCorruptedOutput(t *testing.T) {
	h, _, err := startHarness(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	verify := h.srv.VerifyReceipt
	cells := int64(len(dse.Grid(sweepAxes)))

	before := h.srv.Executions()
	cold, err := h.do("dse", dsePayload(genBase(defaultSeed, 0), sweepAxes))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkColdJob(cold, verify, h.srv.Executions()-before); err != nil {
		t.Fatalf("genuine cold job rejected: %v", err)
	}
	coldCorruptions := map[string]func(j *jobOut, executed *int64){
		"result byte":     func(j *jobOut, _ *int64) { j.result[len(j.result)-2] ^= 1 },
		"receipt sig":     func(j *jobOut, _ *int64) { j.receipt.Sig = strings.Repeat("0", len(j.receipt.Sig)) },
		"receipt job":     func(j *jobOut, _ *int64) { j.id = "job-999999" },
		"result hash":     func(j *jobOut, _ *int64) { j.receipt.ResultHash = strings.Repeat("a", 64) },
		"cached cell":     func(_ *jobOut, executed *int64) { *executed-- },
		"truncated cells": func(j *jobOut, _ *int64) { j.result = j.result[:bytes.LastIndex(j.result, []byte("-- cell "))] },
	}
	for name, corrupt := range coldCorruptions {
		j := cold
		j.result = append([]byte(nil), cold.result...)
		executed := cells
		corrupt(&j, &executed)
		if checkColdJob(j, verify, executed) == nil {
			t.Errorf("cold %s: corrupted job passed the check", name)
		}
	}

	// The cold job's cells are now cached: a single-cell job for one of
	// its grid points executes nothing and returns the same bytes.
	rc, err := parseResult(cold.result)
	if err != nil {
		t.Fatal(err)
	}
	point := applyConfig(genBase(defaultSeed, 0), dse.Grid(sweepAxes)[5])
	execs := h.srv.Executions()
	warm, err := h.do("dse", warmPayload(point, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWarmJob(warm, verify, h.srv.Executions()-execs, rc[5].bytes); err != nil {
		t.Fatalf("genuine warm job rejected: %v", err)
	}
	if checkWarmJob(warm, verify, 1, rc[5].bytes) == nil {
		t.Error("warm job with an execution passed the check")
	}
	// Grid point 17 differs from 5 in policy (the engines are byte-identical).
	if checkWarmJob(warm, verify, 0, rc[17].bytes) == nil {
		t.Error("warm job with another grid point's bytes passed the check")
	}
	bad := warm
	bad.result = bytes.Replace(warm.result, []byte("ctxsw="), []byte("ctxsw=9"), 1)
	if checkWarmJob(bad, verify, 0, rc[5].bytes) == nil {
		t.Error("warm job with a corrupted result passed the check")
	}
}

func TestGeneratedTaskSetsValidate(t *testing.T) {
	grid := dse.Grid(sweepAxes)
	if len(grid) != 48 {
		t.Fatalf("grid has %d cells, want 48", len(grid))
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed, 2, 3, 42, -5} {
		for i := 0; i < 20; i++ {
			base := genBase(seed, i)
			if err := base.Validate(); err != nil {
				t.Fatalf("seed %d job %d base: %v", seed, i, err)
			}
			var p struct {
				Base json.RawMessage `json:"base"`
			}
			if err := json.Unmarshal(dsePayload(base, sweepAxes), &p); err != nil {
				t.Fatal(err)
			}
			if _, err := taskset.Parse(p.Base); err != nil {
				t.Fatalf("seed %d job %d payload base: %v", seed, i, err)
			}
			for _, cfg := range grid {
				v := applyConfig(base, cfg)
				if err := v.Validate(); err != nil {
					t.Fatalf("seed %d job %d %s: %v", seed, i, cfg.Key(), err)
				}
			}
		}
		if err := distinctCells(seed, 0, 30); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if a, b := genBase(defaultSeed, 3), genBase(defaultSeed, 3); !bytes.Equal(dse.Canonical(&a), dse.Canonical(&b)) {
		t.Error("same seed and index generated different task sets")
	}
	a, b := genBase(defaultSeed, 3), genBase(heldOutSeed, 3)
	if bytes.Equal(dse.Canonical(&a), dse.Canonical(&b)) {
		t.Error("different seeds generated the same task set")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && (b.Workloads[i].Name != workloads[i].Name || b.Workloads[i].Why != workloads[i].Why) {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q %q", i, b.Workloads[i], workloads[i].Name, workloads[i].Why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if i < len(want) && (got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better) {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload briefly, with
// and without tracing, and compares the last line's metric names and
// units with BENCHMARK.json.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	want := map[string]map[string]string{"0": {}, "1": {}}
	for _, m := range b.EndToEnd {
		want["0"][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want["1"][m.Name] = m.Unit
	}
	for _, w := range workloads {
		if testing.Short() && w.Name == "table1" {
			continue // three warm-up triples take seconds
		}
		for _, tr := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.05", "--trace", tr, "--out", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, tr, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w.Name, tr, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d: %s", w.Name, tr, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			var got, exp []string
			for name, v := range res.Metrics {
				got = append(got, name+" "+v.Unit)
			}
			for name, unit := range want[tr] {
				exp = append(exp, name+" "+unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s trace %s: printed %v, BENCHMARK.json %v", w.Name, tr, got, exp)
			}
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "table1", "--seconds", "0"},
		{"--workload", "table1", "--trace", "2"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}
