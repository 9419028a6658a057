// Package server exposes the job manager over HTTP — the
// simulation-as-a-service surface of the fleet runtime. The API is plain
// JSON over stdlib net/http, versioned under /v1:
//
//	POST   /v1/jobs              submit a replay spec → 202 + job status
//	                             (200 when served from the fingerprint
//	                             cache). The spec is a sweep grid: three
//	                             non-empty axis lists — "schemes",
//	                             "profiles" and "cohorts", each an array
//	                             of parameterized specs resolved against
//	                             its registry — whose cross product runs
//	                             as one deterministic fleet run per cell.
//	                             Unknown fields, an empty axis and bodies
//	                             over 1 MiB are rejected (400, 400, 413).
//	GET    /v1/policies          discovery: every registered policy with
//	                             its parameter schema (kind, default,
//	                             bounds), capabilities (trace-fitted,
//	                             gap-lookahead) and legacy aliases
//	GET    /v1/profiles          discovery: every registered carrier
//	                             profile — each Table 2 constant a
//	                             bounds-checked knob — plus display-name
//	                             aliases
//	GET    /v1/workloads         discovery: every registered cohort family
//	                             (population, duration, diurnal mask,
//	                             seed stride, app weights)
//	GET    /v1/jobs              list all jobs in submission order
//	GET    /v1/jobs/{id}         one job's status + progress
//	GET    /v1/jobs/{id}/stream  NDJSON feed of progress + merged
//	                             partials, terminated by the final state
//	GET    /v1/jobs/{id}/result  final summary; ?format=json (default),
//	                             csv, or text. Grid jobs render one
//	                             summary per cell; ?cell=N serves cell N's
//	                             JSON verbatim — byte-identical to the
//	                             equivalent single-axis job's result.
//	DELETE /v1/jobs/{id}         cancel (queued cancels at once, running
//	                             at the fleet's next between-jobs check)
//	GET    /v1/cells/{fp}        one finished grid cell by its
//	                             content-addressed fingerprint (the
//	                             "fingerprint" field of grid results),
//	                             served from the in-memory cell cache or
//	                             the durable store — byte-identical to the
//	                             ?cell=N rendering of any job containing
//	                             it. 404 when unknown to both tiers.
//	GET    /healthz              liveness + queue/cache gauges (plus
//	                             durable-store gauges when a store is
//	                             configured)
//
// Result bytes are rendered once per fingerprint by the jobs layer, so a
// cache-hit response is byte-identical to the cold run that populated it.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/spec"
	"repro/internal/workload"
)

// pollInterval paces the stream endpoint's progress checks; tests shrink
// it. Watchers also wake immediately on job completion.
var pollInterval = 150 * time.Millisecond

// Server routes HTTP requests to a jobs.Manager.
type Server struct {
	manager *jobs.Manager
	mux     *http.ServeMux
}

// New builds the HTTP handler over a running manager.
func New(m *jobs.Manager) *Server {
	s := &Server{manager: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.health)
	s.mux.HandleFunc("POST /v1/jobs", s.submit)
	s.mux.HandleFunc("GET /v1/jobs", s.list)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.get)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.result)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.stream)
	s.mux.HandleFunc("GET /v1/cells/{fingerprint}", s.cell)
	s.mux.HandleFunc("GET /v1/policies", s.policies)
	s.mux.HandleFunc("GET /v1/profiles", s.profiles)
	s.mux.HandleFunc("GET /v1/workloads", s.workloads)
	return s
}

// PolicyCatalog is the GET /v1/policies payload: the registry's schemas,
// split by role, each with its full parameter schema, capabilities and
// legacy aliases. Clients discover the sweepable policy space from this
// instead of hardcoding names.
type PolicyCatalog struct {
	Demote []policy.SchemaInfo `json:"demote"`
	Active []policy.SchemaInfo `json:"active"`
}

// Catalog builds the discovery payload from the default registry; the
// guard test asserts it stays in lockstep with the registry itself.
func Catalog() PolicyCatalog {
	reg := policy.Default()
	return PolicyCatalog{
		Demote: reg.Describe(policy.RoleDemote),
		Active: reg.Describe(policy.RoleActive),
	}
}

func (s *Server) policies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Catalog())
}

// ProfileCatalog is the GET /v1/profiles payload: every carrier base
// schema — each Table 2 constant a parameter with kind, default and
// bounds — plus the legacy display-name aliases. Clients discover the
// sweepable profile space from this instead of hardcoding carrier names.
type ProfileCatalog struct {
	Profiles []spec.SchemaInfo `json:"profiles"`
}

// ProfilesCatalog builds the discovery payload from the default profile
// registry; the guard test asserts it stays in lockstep with the registry
// itself.
func ProfilesCatalog() ProfileCatalog {
	return ProfileCatalog{Profiles: power.Default().Describe()}
}

func (s *Server) profiles(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ProfilesCatalog())
}

// WorkloadCatalog is the GET /v1/workloads payload: every registered
// cohort family with its population knobs.
type WorkloadCatalog struct {
	Cohorts []spec.SchemaInfo `json:"cohorts"`
}

// WorkloadsCatalog builds the discovery payload from the default cohort
// registry; the guard test asserts it stays in lockstep with the registry
// itself.
func WorkloadsCatalog() WorkloadCatalog {
	return WorkloadCatalog{Cohorts: workload.Cohorts().Describe()}
}

func (s *Server) workloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, WorkloadsCatalog())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) health(w http.ResponseWriter, r *http.Request) {
	traces := s.manager.TraceCacheStats()
	body := map[string]any{
		"status":                "ok",
		"jobs":                  s.manager.Len(),
		"queue_depth":           s.manager.QueueDepth(),
		"cache_len":             s.manager.CacheLen(),
		"cell_cache_len":        s.manager.CellCacheLen(),
		"cells_executed":        s.manager.CellsExecuted(),
		"cells_in_flight":       s.manager.CellsInFlight(),
		"trace_cache_hits":      traces.Hits,
		"trace_cache_misses":    traces.Misses,
		"trace_cache_bytes":     traces.Bytes,
		"trace_cache_evictions": traces.Evictions,
		"replay_passes":         traces.ReplayPasses,
		"fit_memo_hits":         traces.FitHits,
		"fit_memo_misses":       traces.FitMisses,
		"slab_decodes":          traces.SlabDecodes,
	}
	if stats, ok := s.manager.StoreStats(); ok {
		body["store"] = stats
	}
	writeJSON(w, http.StatusOK, body)
}

// cell serves one finished grid cell by its content-addressed
// fingerprint, whichever tier holds it. The bytes are the cell's
// memoized JSON rendering — identical to the ?cell=N bytes of any job
// that contains the cell, and to the flat rendering of the equivalent
// single-axis job.
func (s *Server) cell(w http.ResponseWriter, r *http.Request) {
	c, ok := s.manager.Cell(r.PathValue("fingerprint"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such cell"))
		return
	}
	body, err := c.JSON()
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("rendering cell: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// maxSpecBytes bounds a submitted spec's body. A spec within the jobs
// admission limits (at most 96 axis values) is kilobytes of JSON, so
// 1 MiB leaves ample room while a hostile body is cut off unread.
const maxSpecBytes = 1 << 20

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("bad spec: %w", err))
		return
	}
	_, st, err := s.manager.SubmitStatus(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, jobs.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if st.CacheHit {
		code = http.StatusOK // already complete, served from cache
	}
	writeJSON(w, code, st)
}

func (s *Server) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.List())
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.manager.Cancel(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	st := job.Status()
	switch st.State {
	case jobs.StateDone:
	case jobs.StateFailed:
		httpError(w, http.StatusInternalServerError, fmt.Errorf("job failed: %s", st.Error))
		return
	case jobs.StateCanceled:
		httpError(w, http.StatusGone, fmt.Errorf("job canceled"))
		return
	default:
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; poll or stream until done", st.ID, st.State))
		return
	}
	res := job.Result()
	// ?cell=N serves one grid cell's JSON verbatim: the exact bytes the
	// equivalent single-axis job's flat result would carry, which is what
	// makes grid cells comparable (and cacheable) byte for byte.
	if cellParam := r.URL.Query().Get("cell"); cellParam != "" {
		idx, err := strconv.Atoi(cellParam)
		if err != nil || idx < 0 || idx >= len(res.Cells) {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("bad cell %q (job has cells 0..%d)", cellParam, len(res.Cells)-1))
			return
		}
		body, err := res.Cells[idx].JSON()
		if err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("rendering cell: %w", err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		body, err := res.JSON()
		if err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("rendering result: %w", err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case "csv":
		body, err := res.CSV()
		if err != nil {
			httpError(w, http.StatusInternalServerError, fmt.Errorf("rendering result: %w", err))
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Write(body)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, res.Text())
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (json, csv, text)", format))
	}
}

// StreamEvent is one NDJSON line of the stream endpoint: the job's state
// and progress, plus compact per-scheme partial aggregates once the first
// shard lands. The final line of a stream carries a terminal state.
type StreamEvent struct {
	ID       string                  `json:"id"`
	State    jobs.State              `json:"state"`
	Progress jobs.Progress           `json:"progress"`
	Partial  map[string]PartialStats `json:"partial,omitempty"`
	Error    string                  `json:"error,omitempty"`
}

// PartialStats summarizes one scheme's merged partial aggregate.
type PartialStats struct {
	Jobs           int64   `json:"jobs"`
	EnergyMeanJ    float64 `json:"energy_mean_j"`
	SavingsPctMean float64 `json:"savings_pct_mean"`
}

func eventFor(job *jobs.Job) StreamEvent {
	st := job.Status()
	ev := StreamEvent{ID: st.ID, State: st.State, Progress: st.Progress, Error: st.Error}
	if partial := job.Partial(); partial != nil {
		ev.Partial = make(map[string]PartialStats, len(partial.Schemes))
		for _, name := range partial.SchemeNames() {
			a := partial.Schemes[name]
			ev.Partial[name] = PartialStats{
				Jobs:           a.Energy.N,
				EnergyMeanJ:    a.Energy.Mean,
				SavingsPctMean: a.SavingsPct.Mean,
			}
		}
	}
	return ev
}

// stream writes an NDJSON event per observed progress change until the job
// terminates (its final event closes the stream) or the client goes away.
func (s *Server) stream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev StreamEvent) {
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	last := eventFor(job)
	emit(last)
	if last.State.Terminal() {
		return
	}
	ticker := time.NewTicker(pollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			emit(eventFor(job))
			return
		case <-ticker.C:
			ev := eventFor(job)
			if ev.State != last.State || ev.Progress != last.Progress {
				emit(ev)
				last = ev
			}
			if ev.State.Terminal() {
				return
			}
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
