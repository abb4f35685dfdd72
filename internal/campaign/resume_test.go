package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/receipt"
	"repro/internal/campaign/runstate"
)

// The differential crash-resume harness.
//
// A mixed campaign — one job of every kind — is first run uninterrupted
// (the golden run), then run again while being killed at every event-log
// position, and at every append to the cache's bytes segment, and
// restarted until it completes. At any kill position and any worker
// count the finished campaign must be indistinguishable from the golden
// run: byte-identical results, byte-identical signed receipts,
// byte-identical canonical run state — and no completed cell may ever
// execute twice (verified by cache-hit/execution accounting).

// submission is one workload entry.
type submission struct {
	kind    string
	payload string
}

// harnessWorkload is the mixed campaign: every job kind, multi-cell
// fan-outs, and a DSE sweep that shares one cell with the plain taskset
// job (the priority/coarse configuration), exercising cross-job cache
// sharing under crashes.
func harnessWorkload() []submission {
	sdlSrc := "behavior A { delay 100ns }\\nbehavior B { delay 60ns }\\ncompose main seq { A B }\\ntop main\\ntask main priority 0\\n"
	return []submission{
		{KindTaskset, tinySet},
		{KindSDL, fmt.Sprintf(`{"source": "%s"}`, sdlSrc)},
		{KindFault, `{"seeds": [3, 5], "plans": [
			{"name": "baseline", "expect_clean": true},
			{"name": "drop-irq", "drop_irq": {"prob": 1}}
		]}`},
		{KindDSE, fmt.Sprintf(`{"base": %s, "axes": [
			{"name": "policy", "values": ["priority", "edf"]},
			{"name": "timeModel", "values": ["coarse", "segmented"]}
		]}`, tinySet)},
	}
}

// uniqueCellCount derives the number of distinct cells in the workload —
// the exact number of simulations any run of it, however interrupted,
// is allowed to execute.
func uniqueCellCount(t *testing.T, work []submission) int {
	t.Helper()
	keys := map[string]bool{}
	for _, w := range work {
		_, cells, err := buildJob(w.kind, []byte(w.payload))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			keys[c.key] = true
		}
	}
	return len(keys)
}

// artifacts is everything a finished campaign computed, in comparable
// form.
type artifacts struct {
	ids        []string
	results    [][]byte
	receipts   []receipt.Receipt
	canonical  []byte
	events     int
	executions int64 // simulations actually run, summed over all lives
	// doneExecs counts, per cell key, the cell.done records journaled
	// for an execution (not a cache hit), summed over all lives.
	doneExecs map[string]int
}

// crashSpec arms one life's kill: die on the nth log append (or, with
// segment set, the nth cache segment append), writing torn bytes of the
// record first.
type crashSpec struct {
	after   int
	torn    int
	segment bool
}

const harnessKey = "differential-harness-key"

// runCampaign drives the workload over one campaign directory through
// as many server lives as it takes: each life opens the directory
// (resuming journaled state), idempotently resubmits every payload, and
// either completes the campaign or dies at the armed crash position and
// is restarted. Every life's recovered log must rebuild cleanly.
func runCampaign(t *testing.T, dir string, jobs int, crashes []crashSpec) artifacts {
	t.Helper()
	work := harnessWorkload()
	ids := make([]string, len(work))
	var execs int64
	maxLives := len(crashes) + 60
	for life := 0; life < maxLives; life++ {
		s, err := Open(Options{Dir: dir, Jobs: jobs, Key: []byte(harnessKey)})
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		if life < len(crashes) {
			if c := crashes[life]; c.segment {
				s.cache.SetCrashAfter(c.after, c.torn)
			} else {
				s.SetCrashAfter(c.after, c.torn)
			}
		}
		submittedAll := true
		for i, w := range work {
			id, _, err := s.Submit(w.kind, []byte(w.payload))
			if err != nil {
				// The kill landed on this accept; resubmit next life.
				submittedAll = false
				break
			}
			if ids[i] != "" && ids[i] != id {
				t.Fatalf("life %d: payload %d drifted from job %s to %s", life, i, ids[i], id)
			}
			ids[i] = id
		}
		done := submittedAll && waitAllOrHalt(t, s, ids)
		if done && !s.Halted() {
			execs += s.Executions()
			art := collectArtifacts(t, s, ids)
			art.executions = execs
			s.Close()
			return art
		}
		s.Close()
		execs += s.Executions()
		// Whatever survived the kill must still be a valid journal.
		recs, err := s.LogRecords()
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		if _, err := runstate.Rebuild(recs); err != nil {
			t.Fatalf("life %d: recovered log does not rebuild: %v", life, err)
		}
	}
	t.Fatalf("campaign did not complete in %d lives", maxLives)
	return artifacts{}
}

// waitAllOrHalt waits until every job is terminal (true) or the server
// latched dead after the armed kill (false).
func waitAllOrHalt(t *testing.T, s *Server, ids []string) bool {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		allDone := true
		for _, id := range ids {
			st, ok := s.Status(id)
			if !ok {
				allDone = false
				break
			}
			switch st.Status {
			case runstate.StatusDone, runstate.StatusFailed, runstate.StatusCancelled:
			default:
				allDone = false
			}
			if !allDone {
				break
			}
		}
		if allDone {
			return true
		}
		if s.Halted() {
			return false
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign neither completed nor crashed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func collectArtifacts(t *testing.T, s *Server, ids []string) artifacts {
	t.Helper()
	art := artifacts{ids: append([]string(nil), ids...)}
	for _, id := range ids {
		st, ok := s.Status(id)
		if !ok || st.Status != runstate.StatusDone {
			t.Fatalf("job %s finished as %+v", id, st)
		}
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		rcpt, err := s.Receipt(id)
		if err != nil {
			t.Fatal(err)
		}
		if !s.VerifyReceipt(rcpt) {
			t.Fatalf("job %s receipt does not verify", id)
		}
		art.results = append(art.results, res)
		art.receipts = append(art.receipts, rcpt)
	}
	recs, err := s.LogRecords()
	if err != nil {
		t.Fatal(err)
	}
	st, err := runstate.Rebuild(recs)
	if err != nil {
		t.Fatal(err)
	}
	art.canonical = st.Canonical()
	art.events = len(recs)
	art.doneExecs = executedDone(t, recs)
	return art
}

// executedDone counts, per cell key, the cell.done records of a log
// that report an execution rather than a cache hit.
func executedDone(t *testing.T, recs []eventlog.Record) map[string]int {
	t.Helper()
	cells := map[string][]string{} // job ID → cell keys
	n := map[string]int{}
	for _, r := range recs {
		switch r.Type {
		case runstate.EvJobAccepted:
			var a runstate.JobAccepted
			if err := json.Unmarshal(r.Data, &a); err != nil {
				t.Fatal(err)
			}
			cells[a.ID] = a.Cells
		case runstate.EvCellDone:
			var d runstate.CellDone
			if err := json.Unmarshal(r.Data, &d); err != nil {
				t.Fatal(err)
			}
			if !d.Cached {
				n[cells[d.Job][d.Idx]]++
			}
		}
	}
	return n
}

// diffArtifacts asserts two finished campaigns are indistinguishable.
func diffArtifacts(t *testing.T, label string, golden, got artifacts) {
	t.Helper()
	for i := range golden.ids {
		if golden.ids[i] != got.ids[i] {
			t.Errorf("%s: job ID %d: %s vs %s", label, i, golden.ids[i], got.ids[i])
		}
		if !bytes.Equal(golden.results[i], got.results[i]) {
			t.Errorf("%s: job %s result bytes differ:\n--- golden\n%s\n--- got\n%s",
				label, golden.ids[i], golden.results[i], got.results[i])
		}
		if !bytes.Equal(golden.receipts[i].Payload(), got.receipts[i].Payload()) ||
			golden.receipts[i].Sig != got.receipts[i].Sig {
			t.Errorf("%s: job %s receipts differ:\n%+v\nvs\n%+v",
				label, golden.ids[i], golden.receipts[i], got.receipts[i])
		}
	}
	if !bytes.Equal(golden.canonical, got.canonical) {
		t.Errorf("%s: canonical run state differs:\n--- golden\n%s\n--- got\n%s",
			label, golden.canonical, got.canonical)
	}
}

// TestCrashResumeDifferentialMatrix is the headline gate: the campaign
// is killed once at every event-log position (with a varying torn-write
// tail) and once at every cache segment append (tearing 0, 7 and 14
// bytes of the record) and restarted, at worker counts 1 and 8. Every
// resumed campaign must be byte-identical to the golden run. A log kill
// re-executes nothing. A segment kill lands after its cell ran but
// before the cell's bytes were durable, so that one cell runs again —
// and no other: no cell is journaled done from two executions, and the
// lives execute exactly one cell more than the workload holds.
func TestCrashResumeDifferentialMatrix(t *testing.T) {
	work := harnessWorkload()
	wantExecs := int64(uniqueCellCount(t, work))
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			golden := runCampaign(t, t.TempDir(), jobs, nil)
			if golden.executions != wantExecs {
				t.Fatalf("golden run executed %d cells, want %d", golden.executions, wantExecs)
			}
			step := 1
			if testing.Short() {
				step = 5
			}
			for k := 1; k <= golden.events; k += step {
				k := k
				t.Run(fmt.Sprintf("kill@%d", k), func(t *testing.T) {
					got := runCampaign(t, t.TempDir(), jobs,
						[]crashSpec{{after: k, torn: (k % 3) * 7}})
					diffArtifacts(t, fmt.Sprintf("kill@%d", k), golden, got)
					if got.executions != wantExecs {
						t.Errorf("kill@%d: %d cells executed across lives, want %d (zero re-execution)",
							k, got.executions, wantExecs)
					}
				})
			}
			// Every unique cell is persisted by exactly one append.
			for k := 1; k <= int(wantExecs); k += step {
				for _, torn := range []int{0, 7, 14} {
					k, torn := k, torn
					label := fmt.Sprintf("segkill@%d/torn=%d", k, torn)
					t.Run(label, func(t *testing.T) {
						dir := t.TempDir()
						got := runCampaign(t, dir, jobs,
							[]crashSpec{{after: k, torn: torn, segment: true}})
						diffArtifacts(t, label, golden, got)
						// Appends made after the tear must survive a restart.
						reopenServesAll(t, dir, golden)
						for key, n := range got.doneExecs {
							if n > 1 {
								t.Errorf("%s: cell %s journaled done from %d executions", label, key, n)
							}
						}
						if got.executions != wantExecs+1 {
							t.Errorf("%s: %d cells executed across lives, want %d (only the torn cell again)",
								label, got.executions, wantExecs+1)
						}
					})
				}
			}
		})
	}
}

// TestCrashResumeAtAnyJobsCountAgrees: the golden artifacts themselves
// are independent of worker fan-out.
func TestCrashResumeAtAnyJobsCountAgrees(t *testing.T) {
	g1 := runCampaign(t, t.TempDir(), 1, nil)
	g8 := runCampaign(t, t.TempDir(), 8, nil)
	diffArtifacts(t, "jobs=1 vs jobs=8", g1, g8)
	if g1.events != g8.events {
		t.Errorf("event counts differ: %d vs %d", g1.events, g8.events)
	}
}

// TestCrashResumeRepeatedKills: a hostile environment that kills the
// server every few log appends, life after life, still converges to the
// golden artifacts with zero re-execution.
func TestCrashResumeRepeatedKills(t *testing.T) {
	golden := runCampaign(t, t.TempDir(), 8, nil)
	crashes := make([]crashSpec, 40)
	for i := range crashes {
		crashes[i] = crashSpec{after: 3 + i%4, torn: (i * 5) % 23}
	}
	got := runCampaign(t, t.TempDir(), 8, crashes)
	diffArtifacts(t, "repeated kills", golden, got)
	if want := int64(uniqueCellCount(t, harnessWorkload())); got.executions != want {
		t.Errorf("%d cells executed across lives, want %d", got.executions, want)
	}
}

// reopenServesAll reopens a finished campaign directory and requires
// every golden artifact to be reassembled from the cache, executing
// nothing. It returns the reopened server, closed at cleanup.
func reopenServesAll(t *testing.T, dir string, golden artifacts) *Server {
	t.Helper()
	s, err := Open(Options{Dir: dir, Jobs: 4, Key: []byte(harnessKey)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	hitsBefore := s.CacheStats().Hits
	got := collectArtifacts(t, s, golden.ids)
	diffArtifacts(t, "reopen", golden, got)
	if n := s.Executions(); n != 0 {
		t.Fatalf("reopening a finished campaign executed %d cells", n)
	}
	if hits := s.CacheStats().Hits - hitsBefore; hits == 0 {
		t.Fatal("reassembled results took no cache hits")
	}
	return s
}

// TestResumeServesDoneJobsFromCache: reopening a finished campaign
// executes nothing — results are reassembled from the cache and verified
// against the journaled hashes.
func TestResumeServesDoneJobsFromCache(t *testing.T) {
	dir := t.TempDir()
	golden := runCampaign(t, dir, 4, nil)
	s := reopenServesAll(t, dir, golden)
	// Idempotent resubmission after restart: same IDs, still nothing runs.
	for i, w := range harnessWorkload() {
		id, dup, err := s.Submit(w.kind, []byte(w.payload))
		if err != nil || !dup || id != golden.ids[i] {
			t.Fatalf("resubmission %d = (%s, %v, %v), want (%s, true)", i, id, dup, err, golden.ids[i])
		}
	}
	if n := s.Executions(); n != 0 {
		t.Fatalf("resubmission executed %d cells", n)
	}
}
