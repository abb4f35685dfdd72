package dse

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// serializePoints renders an exploration result into comparable bytes:
// every field that Explore promises, with aux metrics in sorted order.
func serializePoints(points []Point) []byte {
	var b bytes.Buffer
	for i, p := range points {
		fmt.Fprintf(&b, "%d key=%q cost=%v front=%d err=%v aux={", i, p.Config.Key(), p.Cost, p.Front, p.Err)
		names := make([]string, 0, len(p.Aux))
		for name := range p.Aux {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%v", name, p.Aux[name])
		}
		fmt.Fprintf(&b, " }\n")
	}
	return b.Bytes()
}

func memoAxes() []Axis {
	return []Axis{
		{Name: "policy", Values: []string{"priority", "rr", "edf", "fifo"}},
		{Name: "load", Values: []string{"1", "2", "3"}},
	}
}

func memoEval(calls *atomic.Int64) EvalFunc {
	return func(c Config) (float64, map[string]float64, error) {
		calls.Add(1)
		var load float64
		fmt.Sscanf(c["load"], "%f", &load)
		cost := load * float64(len(c["policy"]))
		return cost, map[string]float64{"switches": 10 - load}, nil
	}
}

// TestExploreMemoization is the memoization-accounting gate: the first
// sweep misses every cell, an identical repeat is answered 100% from the
// cache without a single evaluation, and the warm points are
// byte-identical to the cold run — sequentially and on 8 workers (the
// -race build makes the concurrent case a data-race check too).
func TestExploreMemoization(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs-%d", jobs), func(t *testing.T) {
			cache, err := NewCache("")
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			axes := memoAxes()
			eval := memoEval(&calls)

			cold := Explore(axes, eval, WithJobs(jobs), WithCache(cache, nil), WithObjectives("cost", "switches"))
			n := int64(len(Grid(axes)))
			if calls.Load() != n {
				t.Fatalf("cold sweep: %d evaluations, want %d", calls.Load(), n)
			}
			if s := cache.Stats(); s.Hits != 0 || s.Misses != int(n) {
				t.Fatalf("cold sweep stats = %+v, want 0 hits / %d misses", s, n)
			}

			warm := Explore(axes, eval, WithJobs(jobs), WithCache(cache, nil), WithObjectives("cost", "switches"))
			if calls.Load() != n {
				t.Errorf("warm sweep re-evaluated: %d total calls, want %d", calls.Load(), n)
			}
			s := cache.Stats()
			if s.Hits != int(n) || s.Misses != int(n) {
				t.Errorf("warm sweep stats = %+v, want %d hits / %d misses", s, n, n)
			}
			if got := s.HitRate(); got != 0.5 {
				t.Errorf("cumulative hit rate = %v, want 0.5 (cold misses + warm hits)", got)
			}
			coldBytes, warmBytes := serializePoints(cold), serializePoints(warm)
			if !bytes.Equal(coldBytes, warmBytes) {
				t.Errorf("warm points differ from cold run:\ncold:\n%swarm:\n%s", coldBytes, warmBytes)
			}
		})
	}
}

// TestCachePersistsAcrossInstances: a second Cache opened on the same
// directory answers the whole sweep from disk.
func TestCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	axes := memoAxes()

	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	cold := Explore(axes, memoEval(&calls), WithJobs(1), WithCache(c1, nil))
	if err := c1.Err(); err != nil {
		t.Fatalf("persist error: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(Grid(axes)) {
		t.Fatalf("%d cache files on disk, want %d", len(files), len(Grid(axes)))
	}

	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := Explore(axes, memoEval(&calls), WithJobs(1), WithCache(c2, nil))
	if got, want := calls.Load(), int64(len(Grid(axes))); got != want {
		t.Errorf("disk-warm sweep evaluated %d times total, want %d (cold only)", got, want)
	}
	if s := c2.Stats(); s.Misses != 0 || s.HitRate() != 1.0 {
		t.Errorf("disk-warm stats = %+v, want 100%% hits", s)
	}
	if !bytes.Equal(serializePoints(cold), serializePoints(warm)) {
		t.Errorf("disk-warm points differ from cold run")
	}
}

// TestCacheSkipsFailedEvaluations: errors are never memoized, so a
// transient failure retries on the next sweep.
func TestCacheSkipsFailedEvaluations(t *testing.T) {
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	axes := []Axis{{Name: "n", Values: []string{"ok", "bad"}}}
	var calls atomic.Int64
	eval := func(c Config) (float64, map[string]float64, error) {
		calls.Add(1)
		if c["n"] == "bad" {
			return 0, nil, fmt.Errorf("transient")
		}
		return 1, nil, nil
	}
	Explore(axes, eval, WithJobs(1), WithCache(cache, nil))
	Explore(axes, eval, WithJobs(1), WithCache(cache, nil))
	if calls.Load() != 3 {
		t.Errorf("%d evaluations, want 3 (ok once, bad twice)", calls.Load())
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 3 {
		t.Errorf("stats = %+v, want 1 hit / 3 misses", s)
	}
}

// TestCacheCorruptEntryFallsBack: an unreadable disk entry degrades to a
// miss and is re-evaluated, not an error.
func TestCacheCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.store("k", cacheEntry{Cost: 7})
	if err := os.WriteFile(c.path("k"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.lookup("k"); ok {
		t.Errorf("corrupt entry served as a hit")
	}
	if s := c2.Stats(); s.Misses != 1 {
		t.Errorf("stats = %+v, want the corrupt read counted as a miss", s)
	}
}

// TestCacheBytesRoundTrip: opaque payloads stored with PutBytes come back
// byte-identical from memory and, via a fresh Cache, from disk — the
// shared result store the campaign server leans on for crash-resumed
// cells.
func TestCacheBytesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("result bytes\x00with binary\xff")
	if _, ok := c.GetBytes("cell"); ok {
		t.Fatal("empty cache served a hit")
	}
	c.PutBytes("cell", payload)
	got, ok := c.GetBytes("cell")
	if !ok || string(got) != string(payload) {
		t.Fatalf("memory read = %q ok=%v, want original payload", got, ok)
	}
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = c2.GetBytes("cell")
	if !ok || string(got) != string(payload) {
		t.Fatalf("disk read = %q ok=%v, want original payload", got, ok)
	}
	if s := c2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 1 hit / 0 misses", s)
	}
}

// TestCacheBytesMemoryOnly: a dir-less cache serves bytes from memory and
// persists nothing.
func TestCacheBytesMemoryOnly(t *testing.T) {
	c, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	c.PutBytes("k", []byte("v"))
	if b, ok := c.GetBytes("k"); !ok || string(b) != "v" {
		t.Fatalf("GetBytes = %q ok=%v", b, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v, want 1 hit", s)
	}
}

// segRecordLen is the on-disk size of one segment record.
func segRecordLen(key string, payload []byte) int {
	return segHeader + len(key) + len(payload) + segTrailer
}

// openCache opens a cache on dir or fails the test.
func openCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wantBytes asserts that key hits with payload want.
func wantBytes(t *testing.T, label string, c *Cache, key, want string) {
	t.Helper()
	if b, ok := c.GetBytes(key); !ok || string(b) != want {
		t.Errorf("%s: GetBytes(%q) = %q ok=%v, want %q", label, key, b, ok, want)
	}
}

// wantMiss asserts that key misses.
func wantMiss(t *testing.T, label string, c *Cache, key string) {
	t.Helper()
	if b, ok := c.GetBytes(key); ok {
		t.Errorf("%s: GetBytes(%q) served %q, want a miss", label, key, b)
	}
}

// TestCacheBytesCorruptEntryIsAMiss: a truncated, bit-flipped or garbage
// last segment record fails its framing or checksum and degrades to a
// miss — wrong bytes are never served — while the records before it
// still hit.
func TestCacheBytesCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	payload := []byte("the payload")
	if err := c.PutBytes("first", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBytes("k", payload); err != nil {
		t.Fatal(err)
	}
	c.Close()
	data, err := os.ReadFile(filepath.Join(dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	last := len(data) - segRecordLen("k", payload)
	for name, corrupt := range map[string][]byte{
		"truncated": data[:len(data)-3],
		"bitflip":   append(append([]byte(nil), data[:len(data)-1]...), data[len(data)-1]^0x40),
		"garbage":   append(append([]byte(nil), data[:last]...), "not a cache entry"...),
	} {
		if err := os.WriteFile(filepath.Join(dir, segName), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		c2 := openCache(t, dir)
		wantMiss(t, name, c2, "k")
		if s := c2.Stats(); s.Misses != 1 {
			t.Errorf("%s: stats = %+v, want the corrupt read counted as a miss", name, s)
		}
		wantBytes(t, name, c2, "first", "kept")
	}
}

// TestCacheSegmentTornTailRepair: an append after a torn tail must land
// on the valid prefix, not behind the torn bytes — otherwise the next
// open stops indexing at the tear and loses the new entry.
func TestCacheSegmentTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	for _, k := range []string{"a", "b"} {
		if err := c.PutBytes(k, []byte("value "+k)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	path := filepath.Join(dir, segName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	c2 := openCache(t, dir)
	wantBytes(t, "torn", c2, "a", "value a")
	wantMiss(t, "torn", c2, "b")
	if err := c2.PutBytes("c", []byte("value c")); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	c3 := openCache(t, dir)
	wantBytes(t, "reopen", c3, "a", "value a")
	wantBytes(t, "reopen", c3, "c", "value c")
	wantMiss(t, "reopen", c3, "b")
}

// TestCacheSegmentCrashDrill: the torn-write hook fails exactly one
// append with ErrCrash, leaves that entry a miss for the next process,
// and the same instance's next append repairs the tear.
func TestCacheSegmentCrashDrill(t *testing.T) {
	for _, torn := range []int{0, 7, 14} {
		t.Run(fmt.Sprintf("torn=%d", torn), func(t *testing.T) {
			dir := t.TempDir()
			c := openCache(t, dir)
			if err := c.PutBytes("a", []byte("value a")); err != nil {
				t.Fatal(err)
			}
			c.SetCrashAfter(1, torn)
			if err := c.PutBytes("b", []byte("value b")); !errors.Is(err, ErrCrash) {
				t.Fatalf("armed PutBytes = %v, want ErrCrash", err)
			}
			wantMiss(t, "same instance", c, "b")

			dead := openCache(t, dir) // what a process killed here leaves behind
			wantBytes(t, "after kill", dead, "a", "value a")
			wantMiss(t, "after kill", dead, "b")

			if err := c.PutBytes("c", []byte("value c")); err != nil {
				t.Fatalf("append after the drill: %v", err)
			}
			c.Close()
			c2 := openCache(t, dir)
			wantBytes(t, "repaired", c2, "a", "value a")
			wantBytes(t, "repaired", c2, "c", "value c")
			wantMiss(t, "repaired", c2, "b")
		})
	}
}

// TestCacheSegmentConcurrentPuts: concurrent appends (under -race in the
// gate) interleave whole records; every entry is present after a reopen.
func TestCacheSegmentConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	const workers, each = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := fmt.Sprintf("w%d/%d", w, i)
				if err := c.PutBytes(k, []byte(strings.Repeat(k, i+1))); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	c2 := openCache(t, dir)
	for w := 0; w < workers; w++ {
		for i := 0; i < each; i++ {
			k := fmt.Sprintf("w%d/%d", w, i)
			wantBytes(t, "reopen", c2, k, strings.Repeat(k, i+1))
		}
	}
	if s := c2.Stats(); s.Hits != workers*each || s.Misses != 0 {
		t.Errorf("stats = %+v, want %d hits", s, workers*each)
	}
}

// TestCacheBytesCallerMutationSafe: mutating the slice passed to PutBytes
// after the call does not corrupt the stored entry.
func TestCacheBytesCallerMutationSafe(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		c := openCache(t, dir)
		buf := []byte("original")
		if err := c.PutBytes("k", buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "mutated!")
		wantBytes(t, fmt.Sprintf("dir %q", dir), c, "k", "original")
		if dir != "" {
			c.Close()
			wantBytes(t, "reopen", openCache(t, dir), "k", "original")
		}
	}
}
