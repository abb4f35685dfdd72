package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/campaign/eventlog"
)

// maxBody bounds a submission body (a 4096-cell DSE sweep is well under
// a megabyte of JSON).
const maxBody = 4 << 20

// submitRequest is the POST /jobs body.
type submitRequest struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload"`
}

// submitResponse is the POST /jobs reply. Duplicate reports whether the
// submission was answered by an already-accepted job (idempotent replay).
type submitResponse struct {
	ID        string `json:"id"`
	Duplicate bool   `json:"duplicate"`
}

// apiError is the structured error body every non-2xx reply carries;
// Error is the underlying validator's message (taskset.Validate,
// sdl.Parse, fault.Plan.Validate) verbatim.
type apiError struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	POST /jobs              submit  {kind, payload} → {id, duplicate}
//	GET  /jobs              list all job statuses
//	GET  /jobs/{id}         one job's status
//	GET  /jobs/{id}/result  assembled result bytes (text/plain)
//	GET  /jobs/{id}/receipt signed receipt (JSON)
//	POST /jobs/{id}/cancel  request cancellation
//	GET  /stats             cache/execution counters
//	GET  /healthz           liveness (503 once the log is dead)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/receipt", s.handleReceipt)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("campaign: body over %d bytes", maxBody))
		return
	}
	var req submitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: bad submit body: %v", err))
		return
	}
	if req.Kind == "" || len(req.Payload) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("campaign: submit needs \"kind\" and \"payload\""))
		return
	}
	id, dup, err := s.Submit(req.Kind, req.Payload)
	if err != nil {
		if errors.Is(err, eventlog.ErrCrash) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		// Validation failure: the structured error carries the underlying
		// taskset/sdl/fault message so clients see exactly what to fix.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if dup {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{ID: id, Duplicate: dup})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ids := s.JobIDs()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Status(id); ok {
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: unknown job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.hasJob(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: unknown job %s", id))
		return
	}
	res, err := s.Result(id)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(res)
}

func (s *Server) handleReceipt(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.hasJob(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: unknown job %s", id))
		return
	}
	rcpt, err := s.Receipt(id)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, rcpt)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.hasJob(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("campaign: unknown job %s", id))
		return
	}
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "cancelling"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.CacheStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"cacheHits":   cs.Hits,
		"cacheMisses": cs.Misses,
		"executions":  s.Executions(),
		"jobs":        len(s.JobIDs()),
		"halted":      s.Halted(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Halted() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("campaign: event log dead; restart to resume"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": len(s.JobIDs())})
}
