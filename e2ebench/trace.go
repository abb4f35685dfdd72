package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Parent 0 marks a root span; spans of one job share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(name, job string, parent int) int {
	now := time.Now()
	return t.add(name, job, parent, now, now)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// call times fn as a span under parent and returns its duration.
func (t *tracer) call(name, job string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, job, parent, start, end)
	return end.Sub(start)
}

// layerStat is one span name's aggregate self time.
type layerStat struct {
	Name  string
	Calls int
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the time its children cover (children of one parent
// never overlap: every span is recorded from one goroutine).
func (t *tracer) selfTimes() map[string]*layerStat {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			out[s.Name] = st
		}
		st.Calls++
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		st.Self += time.Duration(self)
	}
	return out
}

// meanSelfUs is the mean self time per call of the named span, in µs.
func meanSelfUs(st map[string]*layerStat, name string) float64 {
	s := st[name]
	if s == nil || s.Calls == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Calls) / 1e3
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimeTable renders each span name's self time, then the derived
// rows: the unattributed share of campaign.run and the tracing overhead.
func selfTimeTable(e *env, o *outcome, vals map[string]float64) string {
	st := e.tr.selfTimes()
	rows := make([]*layerStat, 0, len(st))
	var total time.Duration
	for _, s := range st {
		rows = append(rows, s)
		total += s.Self
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "self time by span (%d spans)\n", len(e.tr.spans))
	fmt.Fprintf(&b, "  %-28s %8s %12s %12s %7s\n", "span", "calls", "self_ms", "mean_us", "share")
	for _, s := range rows {
		share := 0.0
		if total > 0 {
			share = float64(s.Self) / float64(total) * 100
		}
		fmt.Fprintf(&b, "  %-28s %8d %12.3f %12.3f %6.2f%%\n",
			s.Name, s.Calls, ms(s.Self), float64(s.Self)/float64(s.Calls)/1e3, share)
	}
	fmt.Fprintf(&b, "  %-28s %12.4f ms per job (campaign.run minus replayed layer self time)\n",
		"campaign.unattributed_ms", vals["campaign.unattributed_ms"])
	fmt.Fprintf(&b, "  %-28s %12.4f %% (traced job_p50 %.4f ms vs untraced %.4f ms, %d vs %d jobs)\n",
		"trace.overhead_pct", vals["trace.overhead_pct"], ms(median(o.tracedLat)), ms(median(o.lat)),
		len(o.tracedLat), len(o.lat))
	return b.String()
}

// rtSample is a snapshot of the Go runtime counters the per-layer
// metrics difference over the measuring window.
type rtSample struct {
	allocs, allocBytes, gcCPU, cpu float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSample{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.cpu - b.cpu}
}
