package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/taskset"
	"repro/internal/telemetry"
)

// referenceTasksetCell is the taskset cell as it was first served: the
// traced taskset.Run with a full telemetry.Capture (event collector plus
// aggregator) on the goroutine uniprocessor path.
func referenceTasksetCell(s *taskset.Set) ([]byte, *telemetry.Report, error) {
	var capture *telemetry.Capture
	var bus []*telemetry.Bus
	if s.Engine != "rtc" && s.CPUs <= 1 {
		capture = telemetry.NewCapture()
		bus = append(bus, capture.Bus)
	}
	res, err := taskset.Run(s, bus...)
	if err != nil {
		return nil, nil, err
	}
	var rep *telemetry.Report
	if capture != nil {
		capture.SetEnd(res.End)
		rep = capture.Report()
	}
	return renderTasksetResult(res), rep, nil
}

// seededTasks draws a mix of periodic and aperiodic tasks.
func seededTasks(rng *rand.Rand) []taskset.Task {
	n := 2 + rng.Intn(4)
	tasks := make([]taskset.Task, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		if rng.Intn(3) == 0 {
			segs := make([]int64, 1+rng.Intn(3))
			for j := range segs {
				segs[j] = int64(50 + rng.Intn(400))
			}
			tasks = append(tasks, taskset.Task{Name: name, Type: "aperiodic", Prio: rng.Intn(8),
				StartUs: float64(rng.Intn(2000)), ComputeUs: segs})
			continue
		}
		period := float64(500 + 250*rng.Intn(12))
		tasks = append(tasks, taskset.Task{Name: name, Type: "periodic", Prio: rng.Intn(8),
			PeriodUs: period, WcetUs: period * (0.05 + 0.25*rng.Float64()), Cycles: rng.Intn(3) * 4})
	}
	return tasks
}

// cellCorpus is the seeded equivalence corpus: every uniprocessor policy
// × personality × time model × engine, plus global-scheduler sets on
// two CPUs.
func cellCorpus() []*taskset.Set {
	var sets []*taskset.Set
	rng := rand.New(rand.NewSource(20031))
	for _, policy := range []string{"priority", "fcfs", "rr", "edf", "rm"} {
		for _, pers := range []string{"generic", "itron", "osek"} {
			for _, tm := range []string{"coarse", "segmented"} {
				for _, engine := range []string{"goroutine", "rtc"} {
					for seed := 0; seed < 2; seed++ {
						sets = append(sets, &taskset.Set{Policy: policy, QuantumUs: 200, TimeModel: tm,
							Personality: pers, Engine: engine, HorizonMs: 12, Tasks: seededTasks(rng)})
					}
				}
			}
		}
	}
	for _, policy := range []string{"g-fp", "g-edf"} {
		sets = append(sets, &taskset.Set{Policy: policy, CPUs: 2, HorizonMs: 12, Tasks: seededTasks(rng)})
	}
	return sets
}

// TestCellEquivalence pins the campaign's taskset cell — no trace
// recorder, an aggregator-only bus — to the traced run with a full
// capture: cell bytes and marshalled telemetry report must be
// byte-identical on every set of the corpus.
func TestCellEquivalence(t *testing.T) {
	for i, s := range cellCorpus() {
		label := fmt.Sprintf("set %d (policy=%s personality=%s tmodel=%s engine=%s cpus=%d)",
			i, s.Policy, s.Personality, s.TimeModel, s.Engine, s.CPUs)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, wantRep, err := referenceTasksetCell(s)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		got, gotRep, err := runTasksetCell(s)
		if err != nil {
			t.Fatalf("%s: cell: %v", label, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: cell bytes differ:\n--- reference\n%s--- cell\n%s", label, want, got)
		}
		wantJSON, err := json.Marshal(wantRep)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(gotRep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: telemetry reports differ:\n--- reference\n%s\n--- cell\n%s", label, wantJSON, gotJSON)
		}
	}
}
