package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/idempotency"
	"repro/internal/campaign/receipt"
	"repro/internal/campaign/runstate"
	"repro/internal/dse"
	"repro/internal/taskset"
	"repro/internal/telemetry"
)

// maxReplayCells bounds how many cells a traced run replays, so the
// replay stays a few seconds on both campaign workloads.
const maxReplayCells = 1000

// replayJobs replays traced jobs' cell pipeline, in the server's order
// and on the same inputs, through the layers' public functions, with a
// span around each call. cacheDir is the cache the replay probes: an
// empty scratch cache for cold-sweep (every probe misses, as on the
// server), the server's own cache for warm-tasksets (every probe hits).
func replayJobs(e *env, o *outcome, jobs []jobOut, cacheDir string, h *harness) error {
	cache, err := dse.NewCache(cacheDir)
	if err != nil {
		return err
	}
	key, err := os.ReadFile(filepath.Join(h.dir, "receipt.key"))
	if err != nil {
		return err
	}
	log, _, err := eventlog.Open(filepath.Join(e.dir, "replay-events.log"))
	if err != nil {
		return err
	}
	defer log.Close()

	var unattributed []float64
	cells := 0
	for _, j := range jobs {
		if cells >= maxReplayCells {
			break
		}
		equiv, n, err := replayJob(e.tr, j, cache, log, key)
		e.chk.record("replay of "+j.id, err)
		if err != nil {
			continue
		}
		cells += n
		// The server fans a job's cells over min(Jobs, cells) workers; the
		// replay runs them one after another. A single-cell job mostly
		// finishes before the client has read the submit reply, so its
		// campaign.run covers only the job's tail and the difference can
		// be negative.
		par := e.jobs
		if n < par {
			par = n
		}
		unattributed = append(unattributed, ms(j.t[2].Sub(j.t[1]))-ms(equiv)/float64(par))
	}

	st := e.tr.selfTimes()
	l := o.layer
	l["campaign.submit_ms"] = meanSelfUs(st, "campaign.submit") / 1e3
	l["campaign.run_ms"] = meanSelfUs(st, "campaign.run") / 1e3
	l["campaign.fetch_ms"] = meanSelfUs(st, "campaign.fetch") / 1e3
	l["campaign.unattributed_ms"] = mean(unattributed)
	l["taskset.parse_us"] = meanSelfUs(st, "taskset.Parse")
	l["dse.canonical_us"] = meanSelfUs(st, "dse.Canonical")
	l["idempotency.key_us"] = meanSelfUs(st, "idempotency.Key")
	l["taskset.run_goroutine_us"] = meanSelfUs(st, "taskset.Run/goroutine")
	l["taskset.run_rtc_us"] = meanSelfUs(st, "taskset.Run/rtc")
	if c := meanSelfUs(st, "telemetry.Capture"); c > 0 {
		l["telemetry.observe_us"] = c - l["taskset.run_goroutine_us"]
	}
	l["dse.cache_put_us"] = meanSelfUs(st, "dse.Cache.PutBytes")
	l["dse.cache_get_us"] = meanSelfUs(st, "dse.Cache.GetBytes")
	l["eventlog.append_us"] = meanSelfUs(st, "eventlog.Log.Append")
	l["receipt.sign_us"] = meanSelfUs(st, "receipt.Sign")
	return nil
}

// replayJob replays one DSE job: submit (parse, canonical forms and keys,
// job.accepted), then per cell the runCell protocol (cell.started, cache
// probe, on a miss run and cache put, cell.done), then the receipt and
// job.done. It returns the summed duration of the calls the server makes
// while the job runs — the bare goroutine run, done only to isolate
// telemetry's cost, is left out — and the job's cell count. The replayed
// job key and receipt signature must equal the server's.
func replayJob(tr *tracer, j jobOut, cache *dse.Cache, log *eventlog.Log, key []byte) (time.Duration, int, error) {
	var p struct {
		Base json.RawMessage `json:"base"`
		Axes []axisJSON      `json:"axes"`
	}
	if err := json.Unmarshal(j.payload, &p); err != nil {
		return 0, 0, err
	}
	id := j.id
	root := tr.begin("replay", id, 0)
	defer tr.end(root)

	sub := tr.begin("replay.submit", id, root)
	var base *taskset.Set
	var err error
	tr.call("taskset.Parse", id, sub, func() { base, err = taskset.Parse(p.Base) })
	if err != nil {
		tr.end(sub)
		return 0, 0, err
	}
	axes := make([]dse.Axis, len(p.Axes))
	for i, a := range p.Axes {
		axes[i] = dse.Axis{Name: a.Name, Values: a.Values}
	}
	grid := dse.Grid(axes)
	variants := make([]taskset.Set, len(grid))
	cellKeys := make([]string, len(grid))
	for k, cfg := range grid {
		variants[k] = applyConfig(*base, cfg)
		var canon []byte
		tr.call("dse.Canonical", id, sub, func() { canon = dse.Canonical(&variants[k]) })
		tr.call("idempotency.Key", id, sub, func() { cellKeys[k] = idempotency.Key("cell:taskset", canon) })
	}
	var canon []byte
	tr.call("dse.Canonical", id, sub, func() { canon = append([]byte("base="), dse.Canonical(base)...) })
	for _, a := range axes {
		canon = append(canon, fmt.Sprintf("axis name=%q values=%q\n", a.Name, a.Values)...)
	}
	var jobKey string
	tr.call("idempotency.Key", id, sub, func() { jobKey = idempotency.Key("dse", canon) })
	tr.call("eventlog.Log.Append", id, sub, func() {
		err = log.Append(runstate.EvJobAccepted, runstate.JobAccepted{
			ID: id, Kind: "dse", Key: jobKey, Cells: cellKeys, Payload: j.payload,
		})
	})
	tr.end(sub)
	if err != nil {
		return 0, 0, err
	}
	if jobKey != j.receipt.Key {
		return 0, 0, fmt.Errorf("replayed job key %s, server's %s", jobKey, j.receipt.Key)
	}
	cells, err := parseResult(j.result)
	if err != nil {
		return 0, 0, err
	}
	if len(cells) != len(grid) {
		return 0, 0, fmt.Errorf("result has %d cells, replay derives %d", len(cells), len(grid))
	}

	run := tr.begin("replay.run", id, root)
	defer tr.end(run)
	var equiv time.Duration
	var errs []error
	appendRec := func(typ string, v any) {
		equiv += tr.call("eventlog.Log.Append", id, run, func() { errs = append(errs, log.Append(typ, v)) })
	}
	for k := range grid {
		appendRec(runstate.EvCellStarted, runstate.CellStarted{Job: id, Idx: k})
		var hit bool
		equiv += tr.call("dse.Cache.GetBytes", id, run, func() { _, hit = cache.GetBytes(cellKeys[k]) })
		if !hit {
			v := &variants[k]
			if v.Engine == "rtc" {
				equiv += tr.call("taskset.Run/rtc", id, run, func() { _, err = taskset.Run(v) })
				errs = append(errs, err)
			} else {
				// The server's goroutine uniprocessor cell: run with a
				// telemetry capture, then build its report.
				equiv += tr.call("telemetry.Capture", id, run, func() {
					c := telemetry.NewCapture()
					res, err := taskset.Run(v, c.Bus)
					if errs = append(errs, err); err == nil {
						c.SetEnd(res.End)
						c.Report()
					}
				})
				tr.call("taskset.Run/goroutine", id, run, func() { _, err = taskset.Run(v) })
				errs = append(errs, err)
			}
			equiv += tr.call("dse.Cache.PutBytes", id, run, func() { cache.PutBytes(cellKeys[k], cells[k].bytes) })
		}
		sum := sha256.Sum256(cells[k].bytes)
		appendRec(runstate.EvCellDone, runstate.CellDone{Job: id, Idx: k, Hash: hex.EncodeToString(sum[:]), Cached: hit})
	}
	var r receipt.Receipt
	equiv += tr.call("receipt.Sign", id, run, func() {
		r = receipt.Sign(receipt.Receipt{
			Job: id, Kind: "dse", Key: jobKey, Cells: len(grid), ResultHash: j.receipt.ResultHash,
		}, key)
	})
	appendRec(runstate.EvJobDone, runstate.JobDone{ID: id, ResultHash: j.receipt.ResultHash, Receipt: r})
	if r.Sig != j.receipt.Sig {
		errs = append(errs, fmt.Errorf("replayed receipt signature differs from the server's"))
	}
	return equiv, len(grid), errors.Join(errs...)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
