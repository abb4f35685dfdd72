package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/receipt"
	"repro/internal/campaign/runstate"
	"repro/internal/dse"
	"repro/internal/taskset"
)

// ---- generated inputs ---------------------------------------------------

// sweepAxes is the 48-cell grid every generated DSE job sweeps.
var sweepAxes = []dse.Axis{
	{Name: "policy", Values: []string{"priority", "edf", "fcfs", "rm"}},
	{Name: "personality", Values: []string{"generic", "itron", "osek"}},
	{Name: "timeModel", Values: []string{"coarse", "segmented"}},
	{Name: "engine", Values: []string{"goroutine", "rtc"}},
}

// genBase derives job i's base task set from the seed: four periodic
// tasks around fixed nominal periods, with seed-drawn period jitter,
// utilization split and priorities. The job index is part of every task
// name, so no two jobs of a run share a cell.
func genBase(seed int64, i int) taskset.Set {
	r := rand.New(rand.NewSource(int64(splitmix(uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)))))
	nominal := []float64{500, 1000, 2000, 4000}
	total := 0.55 + 0.2*r.Float64()
	weights := make([]float64, len(nominal))
	sum := 0.0
	for k := range weights {
		weights[k] = 0.5 + r.Float64()
		sum += weights[k]
	}
	prios := r.Perm(len(nominal))
	s := taskset.Set{Policy: "priority", TimeModel: "coarse", HorizonMs: 50}
	for k, p := range nominal {
		period := float64(int(p * (0.9 + 0.2*r.Float64())))
		wcet := float64(int(period * total * weights[k] / sum))
		if wcet < 1 {
			wcet = 1
		}
		s.Tasks = append(s.Tasks, taskset.Task{
			Name: fmt.Sprintf("j%d-t%d", i, k), Type: "periodic",
			PeriodUs: period, WcetUs: wcet, Prio: prios[k] + 1,
		})
	}
	return s
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

type axisJSON struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// dsePayload is a DSE job payload: base task set plus axes.
func dsePayload(base taskset.Set, axes []dse.Axis) []byte {
	p := struct {
		Base taskset.Set `json:"base"`
		Axes []axisJSON  `json:"axes"`
	}{Base: base}
	for _, a := range axes {
		p.Axes = append(p.Axes, axisJSON{a.Name, a.Values})
	}
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}

// applyConfig returns base with one grid point's axis values set.
func applyConfig(base taskset.Set, cfg dse.Config) taskset.Set {
	v := base
	v.Tasks = append([]taskset.Task(nil), base.Tasks...)
	for name, val := range cfg {
		switch name {
		case "policy":
			v.Policy = val
		case "personality":
			v.Personality = val
		case "timeModel":
			v.TimeModel = val
		case "engine":
			v.Engine = val
		case "quantumUs":
			v.QuantumUs, _ = strconv.ParseFloat(val, 64)
		}
	}
	return v
}

// warmPayload is the single-cell job for one cached grid point: the grid
// point's task set as base and one quantumUs axis. No swept policy is
// "rr", so the quantum leaves the cell (and its cache key) unchanged,
// while n makes the job key new. A plain taskset job cannot do this: its
// job key is derived from the same canonical form as its cell key, so a
// new job key always means a new, uncached cell.
func warmPayload(point taskset.Set, n int) []byte {
	return dsePayload(point, []dse.Axis{{Name: "quantumUs", Values: []string{strconv.Itoa(n)}}})
}

// ---- server harness -----------------------------------------------------

// harness is a campaign.Server behind a real loopback listener, and the
// single client that talks to it over one kept-alive connection.
type harness struct {
	srv    *campaign.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	dir    string
}

func startHarness(dir string, jobs int) (*harness, time.Duration, error) {
	start := time.Now()
	srv, err := campaign.Open(campaign.Options{Dir: dir, Jobs: jobs})
	if err != nil {
		return nil, 0, err
	}
	open := time.Since(start)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		dir: dir,
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, open, nil
}

// close stops the listener, waits for Serve to return, then closes the
// server.
func (h *harness) close() error {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, h.srv.Close())
}

// jobOut is one job as the client saw it.
type jobOut struct {
	id      string
	payload []byte
	receipt receipt.Receipt
	result  []byte
	t       [4]time.Time // sent, submit reply, Done closed, fetches returned
}

func (j *jobOut) latency() time.Duration { return j.t[3].Sub(j.t[0]) }

// do submits one job over HTTP, waits for the server to finish it, then
// fetches its receipt and result.
func (h *harness) do(kind string, payload []byte) (jobOut, error) {
	body, err := json.Marshal(struct {
		Kind    string          `json:"kind"`
		Payload json.RawMessage `json:"payload"`
	}{kind, payload})
	if err != nil {
		return jobOut{}, err
	}
	j := jobOut{payload: payload}
	j.t[0] = time.Now()
	var sub struct {
		ID        string `json:"id"`
		Duplicate bool   `json:"duplicate"`
	}
	if err := h.call("POST", "/jobs", body, http.StatusAccepted, &sub, nil); err != nil {
		return j, err
	}
	j.t[1] = time.Now()
	j.id = sub.ID
	done, ok := h.srv.Done(j.id)
	if !ok {
		return j, fmt.Errorf("server does not know job %s", j.id)
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		return j, fmt.Errorf("job %s not done after 60s", j.id)
	}
	j.t[2] = time.Now()
	if err := h.call("GET", "/jobs/"+j.id+"/receipt", nil, http.StatusOK, &j.receipt, nil); err != nil {
		return j, err
	}
	if err := h.call("GET", "/jobs/"+j.id+"/result", nil, http.StatusOK, nil, &j.result); err != nil {
		return j, err
	}
	j.t[3] = time.Now()
	return j, nil
}

// call makes one request and decodes a JSON reply into v or keeps the raw
// body in raw.
func (h *harness) call(method, path string, body []byte, want int, v any, raw *[]byte) error {
	req, err := http.NewRequest(method, h.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(data)))
	}
	if raw != nil {
		*raw = data
	}
	if v != nil {
		return json.Unmarshal(data, v)
	}
	return nil
}

// addSpans records a traced job's client-side spans.
func (e *env) addSpans(j jobOut) int {
	root := e.tr.add("job", j.id, 0, j.t[0], j.t[3])
	e.tr.add("campaign.submit", j.id, root, j.t[0], j.t[1])
	e.tr.add("campaign.run", j.id, root, j.t[1], j.t[2])
	e.tr.add("campaign.fetch", j.id, root, j.t[2], j.t[3])
	return root
}

// ---- output checks ------------------------------------------------------

// resultCell is one cell of an assembled simd result.
type resultCell struct {
	label string
	bytes []byte
}

// parseResult splits an assembled result ("simd-result/1 ..." header,
// then "-- cell <i> <label>" framed cell bytes) into its cells.
func parseResult(b []byte) ([]resultCell, error) {
	header, rest, ok := bytes.Cut(b, []byte("\n"))
	if !ok || !bytes.HasPrefix(header, []byte("simd-result/1 ")) {
		return nil, fmt.Errorf("result lacks the simd-result/1 header")
	}
	var cells []resultCell
	for len(rest) > 0 {
		line, body, _ := bytes.Cut(rest, []byte("\n"))
		prefix := fmt.Sprintf("-- cell %d ", len(cells))
		if !bytes.HasPrefix(line, []byte(prefix)) {
			return nil, fmt.Errorf("result cell %d: bad frame %q", len(cells), line)
		}
		end := bytes.Index(body, []byte("\n-- cell "))
		if end < 0 {
			end = len(body)
		} else {
			end++ // keep the cell's trailing newline
		}
		cells = append(cells, resultCell{label: string(line[len(prefix):]), bytes: body[:end]})
		rest = body[end:]
	}
	return cells, nil
}

// checkJob checks what every job must satisfy: a receipt signed by the
// server, for this job, over the exact result bytes fetched, with the
// expected number of cells.
func checkJob(j jobOut, verify func(receipt.Receipt) bool, cells int) ([]resultCell, error) {
	var errs []error
	if !verify(j.receipt) {
		errs = append(errs, fmt.Errorf("receipt signature does not verify"))
	}
	if j.receipt.Job != j.id {
		errs = append(errs, fmt.Errorf("receipt is for job %s", j.receipt.Job))
	}
	sum := sha256.Sum256(j.result)
	if h := hex.EncodeToString(sum[:]); j.receipt.ResultHash != h {
		errs = append(errs, fmt.Errorf("receipt result hash %s, fetched result hashes to %s", j.receipt.ResultHash, h))
	}
	if j.receipt.Cells != cells {
		errs = append(errs, fmt.Errorf("receipt covers %d cells, want %d", j.receipt.Cells, cells))
	}
	rc, err := parseResult(j.result)
	if err != nil {
		errs = append(errs, err)
	} else if len(rc) != cells {
		errs = append(errs, fmt.Errorf("result has %d cells, want %d", len(rc), cells))
	}
	return rc, errors.Join(errs...)
}

// checkColdJob adds the cold-sweep check: every cell of the job was
// executed, none served from the cache.
func checkColdJob(j jobOut, verify func(receipt.Receipt) bool, executed int64) error {
	cells := len(dse.Grid(sweepAxes))
	_, err := checkJob(j, verify, cells)
	if executed != int64(cells) {
		err = errors.Join(err, fmt.Errorf("server executed %d cells for a %d-cell job of new cells", executed, cells))
	}
	return err
}

// checkWarmJob adds the warm-tasksets checks: nothing executed since the
// reopen, and the cell bytes equal those the setup sweep produced for
// the same grid point.
func checkWarmJob(j jobOut, verify func(receipt.Receipt) bool, executions int64, want []byte) error {
	rc, err := checkJob(j, verify, 1)
	if executions != 0 {
		err = errors.Join(err, fmt.Errorf("reopened server executed %d cells, want 0 (all cached)", executions))
	}
	if len(rc) == 1 && !bytes.Equal(rc[0].bytes, want) {
		err = errors.Join(err, fmt.Errorf("cell bytes differ from the setup sweep's for the same grid point"))
	}
	return err
}

// ---- workloads ----------------------------------------------------------

// coldJob runs, checks and (when traced) spans one cold-sweep job.
func coldJob(e *env, h *harness, i int, traced bool, o *outcome) (jobOut, error) {
	before := h.srv.Executions()
	j, err := h.do(campaign.KindDSE, dsePayload(genBase(e.seed, i), sweepAxes))
	if err == nil {
		err = checkColdJob(j, h.srv.VerifyReceipt, h.srv.Executions()-before)
	}
	if o != nil && err == nil {
		if traced {
			e.addSpans(j)
			o.tracedLat = append(o.tracedLat, j.latency())
		} else {
			o.lat = append(o.lat, j.latency())
		}
		o.jobs++
		o.cells += j.receipt.Cells
		e.finished(o.jobs)
	}
	return j, err
}

// coldWarmups is how many sweeps each cold-sweep set-up runs before the
// window.
const coldWarmups = 2

// runColdSweep is the cold-sweep workload. Set-up opens a server on a
// fresh directory and runs coldWarmups warm-up sweeps; the window then
// sends DSE jobs whose every cell is new.
func runColdSweep(e *env) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	var h *harness
	var opens []time.Duration
	next := 0 // generated job index; never reused within the run
	for r := 0; r < setupReps; r++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var open time.Duration
		var err error
		h, open, err = startHarness(filepath.Join(e.dir, fmt.Sprintf("cold-%d", r)), e.jobs)
		if err != nil {
			return nil, err
		}
		opens = append(opens, open)
		for k := 0; k < coldWarmups; k++ {
			_, err = coldJob(e, h, next, false, nil)
			next++
			e.chk.record("cold-sweep set-up job", err)
		}
		o.setup = append(o.setup, time.Since(start))
	}
	defer h.close()

	logPath := filepath.Join(h.dir, "events.log")
	log0 := fileSize(logPath)
	cache0 := h.srv.CacheStats()
	first := next
	var out []jobOut
	e.beginWindow()
	for i := 0; e.open(); i++ {
		traced := e.trace && i%2 == 1
		j, err := coldJob(e, h, next, traced, o)
		next++
		e.chk.record("cold-sweep job "+j.id, err)
		if traced && err == nil {
			out = append(out, j)
		}
	}
	e.endWindow()

	// Run-level checks: the server executed exactly the cells it was
	// sent, and no two jobs of the run shared a cell.
	cells := int64(len(dse.Grid(sweepAxes)))
	sent := int64(next - (setupReps-1)*coldWarmups) // jobs on this server: its set-up jobs plus the window's
	if got := h.srv.Executions(); got != sent*cells {
		e.chk.record("cold-sweep executions", fmt.Errorf("server executed %d cells, %d submitted", got, sent*cells))
	} else {
		e.chk.record("cold-sweep executions", nil)
	}
	e.chk.record("cold-sweep distinct cells", distinctCells(e.seed, first, next))

	if e.trace {
		cs := h.srv.CacheStats()
		l := o.layer
		l["campaign.open_ms"] = ms(median(opens))
		l["dse.cache_hit_ratio"] = hitRatio(cache0, cs)
		if o.cells > 0 {
			l["eventlog.bytes_per_cell"] = float64(fileSize(logPath)-log0) / float64(o.cells)
		}
		if err := replayJobs(e, o, out, filepath.Join(e.dir, "replay-cache"), h); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// distinctCells checks that jobs first..next-1 of the run cover pairwise
// distinct cells (distinct canonical task sets).
func distinctCells(seed int64, first, next int) error {
	seen := map[string]int{}
	grid := dse.Grid(sweepAxes)
	for i := first; i < next; i++ {
		base := genBase(seed, i)
		for _, cfg := range grid {
			v := applyConfig(base, cfg)
			c := string(dse.Canonical(&v))
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("jobs %d and %d share cell %s", prev, i, cfg.Key())
			}
			seen[c] = i
		}
	}
	return nil
}

// warmSweeps is how many 48-cell sweeps warm-tasksets caches in set-up.
const warmSweeps = 8

// warmPoint is one cached grid point and the cell bytes its sweep
// produced.
type warmPoint struct {
	set   taskset.Set
	bytes []byte
}

// runWarmTasksets is the warm-tasksets workload. Set-up runs warmSweeps
// sweeps on a fresh directory, closes the server and reopens the same
// directory; the window then sends single-cell jobs, each for one grid
// point of those sweeps.
func runWarmTasksets(e *env) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	var h *harness
	var pool []warmPoint
	var opens []time.Duration
	grid := dse.Grid(sweepAxes)
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		dir := filepath.Join(e.dir, fmt.Sprintf("warm-%d", r))
		cold, _, err := startHarness(dir, e.jobs)
		if err != nil {
			return nil, err
		}
		pool = pool[:0]
		for s := 0; s < warmSweeps; s++ {
			base := genBase(e.seed, s)
			j, err := coldJob(e, cold, s, false, nil)
			e.chk.record("warm-tasksets set-up sweep "+j.id, err)
			if err != nil {
				continue
			}
			cells, _ := parseResult(j.result)
			for k, cfg := range grid {
				pool = append(pool, warmPoint{set: applyConfig(base, cfg), bytes: cells[k].bytes})
			}
		}
		if err := cold.close(); err != nil {
			return nil, err
		}
		var open time.Duration
		h, open, err = startHarness(dir, e.jobs)
		if err != nil {
			return nil, err
		}
		opens = append(opens, open)
		o.setup = append(o.setup, time.Since(start))
		if r < setupReps-1 {
			if err := h.close(); err != nil {
				return nil, err
			}
		}
	}
	defer h.close()
	if len(pool) == 0 {
		return nil, fmt.Errorf("set-up cached no cells")
	}
	if e.trace {
		d, err := rebuildTime(h.dir, filepath.Join(e.dir, "rebuild"))
		if err != nil {
			return nil, err
		}
		o.layer["runstate.rebuild_ms"] = ms(d)
	}

	logPath := filepath.Join(h.dir, "events.log")
	log0 := fileSize(logPath)
	cache0 := h.srv.CacheStats()
	var out []jobOut
	e.beginWindow()
	for i := 0; e.open(); i++ {
		traced := e.trace && i%2 == 1
		p := pool[i%len(pool)]
		j, err := h.do(campaign.KindDSE, warmPayload(p.set, i+1))
		if err == nil {
			err = checkWarmJob(j, h.srv.VerifyReceipt, h.srv.Executions(), p.bytes)
		}
		e.chk.record("warm-tasksets job "+j.id, err)
		if err != nil {
			continue
		}
		if traced {
			e.addSpans(j)
			o.tracedLat = append(o.tracedLat, j.latency())
			out = append(out, j)
		} else {
			o.lat = append(o.lat, j.latency())
		}
		o.jobs++
		o.cells++
		e.finished(o.jobs)
	}
	e.endWindow()

	if e.trace {
		l := o.layer
		l["campaign.open_ms"] = ms(median(opens))
		l["dse.cache_hit_ratio"] = hitRatio(cache0, h.srv.CacheStats())
		if o.cells > 0 {
			l["eventlog.bytes_per_cell"] = float64(fileSize(logPath)-log0) / float64(o.cells)
		}
		if err := replayJobs(e, o, out, filepath.Join(h.dir, "cache"), h); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// rebuildTime copies the campaign's event log and times eventlog.Open
// plus runstate.Rebuild on the copy (median of setupReps).
func rebuildTime(dir, scratch string) (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join(dir, "events.log"))
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return 0, err
	}
	var ds []time.Duration
	for r := 0; r < setupReps; r++ {
		path := filepath.Join(scratch, fmt.Sprintf("events-%d.log", r))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return 0, err
		}
		start := time.Now()
		log, recs, err := eventlog.Open(path)
		if err != nil {
			return 0, err
		}
		_, err = runstate.Rebuild(recs)
		ds = append(ds, time.Since(start))
		log.Close()
		if err != nil {
			return 0, err
		}
	}
	return median(ds), nil
}

func hitRatio(before, after dse.CacheStats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
