package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign/eventlog"
	"repro/internal/campaign/runstate"
)

// TestCachePersistFailureFailsCell: a cell whose result cannot be written
// to the cache directory must fail its job, not journal cell.done. A done
// record for bytes that never reached the disk would leave a finished job
// that no later server life can reassemble.
func TestCachePersistFailureFailsCell(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Jobs: 1, Key: []byte("test-key")})
	if err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(dir, "cache")
	if err := os.RemoveAll(cache); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	id, _, err := s.Submit(KindTaskset, []byte(tinySet))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	st, _ := s.Status(id)
	if st.Status != runstate.StatusFailed || !strings.Contains(st.Error, "cache persist") {
		t.Fatalf("status = %s (%q), want failed on the cache write", st.Status, st.Error)
	}
	s.Close()

	// Restore the directory and reopen: the journal agrees that the job
	// failed, and a resubmission runs and persists normally.
	if err := os.Remove(cache); err != nil {
		t.Fatal(err)
	}
	s2 := openTestServer(t, dir, 1)
	if st, _ := s2.Status(id); st.Status != runstate.StatusFailed {
		t.Fatalf("reopened status = %s, want failed", st.Status)
	}
	id2, dup, err := s2.Submit(KindTaskset, []byte(tinySet))
	if err != nil || dup || id2 == id {
		t.Fatalf("resubmit = (%s, %v, %v), want a new job", id2, dup, err)
	}
	waitDone(t, s2, id2)
	if _, err := s2.Result(id2); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTestServer(t, dir, 1)
	if _, err := s3.Result(id2); err != nil {
		t.Fatalf("result after reopen: %v", err)
	}
}

// TestOpenWithBacklogDeeperThanQueue: a directory holding more unfinished
// jobs than QueueDepth must open promptly and finish every job with the
// results an uninterrupted server produces.
func TestOpenWithBacklogDeeperThanQueue(t *testing.T) {
	payloads := make([]string, 3)
	for i := range payloads {
		payloads[i] = fmt.Sprintf(`{"base": %s, "axes": [{"name": "policy", "values": ["priority", "edf"]},
			{"name": "quantumUs", "values": ["%d"]}]}`, tinySet, 100+i)
	}

	// Golden: the same jobs submitted to a fresh server.
	golden := make([][]byte, len(payloads))
	g := openTestServer(t, t.TempDir(), 2)
	for i, p := range payloads {
		id, _, err := g.Submit(KindDSE, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, g, id)
		if golden[i], err = g.Result(id); err != nil {
			t.Fatal(err)
		}
	}

	// A journal of three accepted, never-started jobs.
	dir := t.TempDir()
	log, _, err := eventlog.Open(filepath.Join(dir, "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		key, cells, err := buildJob(KindDSE, []byte(p))
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(cells))
		for c := range cells {
			keys[c] = cells[c].key
		}
		if err := log.Append(runstate.EvJobAccepted, runstate.JobAccepted{
			ID: fmt.Sprintf("job-%06d", i+1), Kind: KindDSE, Key: key, Cells: keys, Payload: []byte(p),
		}); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()

	opened := make(chan *Server, 1)
	go func() {
		s, err := Open(Options{Dir: dir, Jobs: 2, Key: []byte("test-key"), QueueDepth: 2})
		if err != nil {
			t.Error(err)
		}
		opened <- s
	}()
	var s *Server
	select {
	case s = <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("Open blocked on a backlog deeper than QueueDepth")
	}
	if s == nil {
		return
	}
	t.Cleanup(func() { s.Close() })
	ids := s.JobIDs()
	if len(ids) != len(payloads) {
		t.Fatalf("resumed %d jobs, want %d", len(ids), len(payloads))
	}
	for i, id := range ids {
		waitDone(t, s, id)
		res, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res, golden[i]) {
			t.Errorf("job %s result differs from the uninterrupted run", id)
		}
	}
}
