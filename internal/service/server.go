// Package service is the simulation-as-a-service engine behind
// cmd/astrasimd: a versioned HTTP/JSON API that turns the batch
// simulator into a long-running multi-tenant daemon.
//
// The design leans entirely on one property proven elsewhere in the
// repo: simulations are deterministic (bit-equal reruns, DESIGN.md §9).
// Determinism makes results content-addressable — a canonical hash of
// the resolved submission names its result forever — which yields the
// three scaling mechanisms here for free:
//
//   - response cache: identical submissions replay the stored payload
//     byte for byte without simulating (cache.go);
//   - single-flight: concurrent identical submissions collapse into one
//     run whose result every waiter shares (jobs.go);
//   - quotas that charge actual work: only submissions that start a new
//     simulation spend tenant tokens (quota.go).
//
// Endpoints (all under /v1):
//
//	POST /v1/jobs          submit; blocks for the result by default,
//	                       ?wait=0 returns 202 with polling URLs
//	GET  /v1/jobs/{id}     job status / result
//	GET  /v1/jobs/{id}/events  SSE progress stream
//	GET  /v1/healthz       liveness
//	GET  /v1/stats         runs, cache hits/misses, queue depth
//
// Tenancy is the X-API-Key header (default "anonymous"). Submissions
// carry a priority; the pool runs high before low, FIFO within a
// priority.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"astrasim/internal/parallel"
)

// Config sizes the server. Zero values select the defaults noted on
// each field.
type Config struct {
	// Workers is the simulation pool width (default: parallel.New's
	// NumCPU choice).
	Workers int
	// CacheEntries bounds the content-addressed result cache (default
	// 4096 entries).
	CacheEntries int
	// QuotaRate is the per-tenant token refill rate in runs/second;
	// 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the per-tenant bucket capacity (default 8).
	QuotaBurst int
	// MaxBodyBytes caps submission bodies (default 8 MiB).
	MaxBodyBytes int64
}

// Server is the job engine. Create with New, expose via Handler, stop
// with Close.
type Server struct {
	cfg    Config
	pool   *parallel.Pool
	cache  *resultCache
	quotas *quotas

	mu       sync.Mutex
	inflight map[string]*job // content address -> running/queued job

	// counters (under mu).
	runs        uint64 // simulations actually executed
	cacheHits   uint64
	cacheMisses uint64
	collapsed   uint64 // submissions attached to an in-flight duplicate

	// testHook, when set, runs inside every job on the worker (between
	// the recover backstop and the simulation). Tests use it to inject
	// panics and stalls and to observe execution order; nil in
	// production.
	testHook func(*compiled)

	// now is the clock (stubbed in quota tests).
	now func() time.Time
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.QuotaBurst == 0 {
		cfg.QuotaBurst = 8
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = parallel.New(0).Workers()
	}
	return &Server{
		cfg:      cfg,
		pool:     parallel.NewPool(workers),
		cache:    newResultCache(cfg.CacheEntries),
		quotas:   newQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		inflight: make(map[string]*job),
		now:      time.Now,
	}
}

// Close drains the pool: queued jobs finish, new submissions are
// rejected.
func (s *Server) Close() { s.pool.Close() }

// Handler returns the versioned API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// jobEnvelope is the submission/status response body. Result carries
// the stored payload verbatim, so cached replays are byte-identical.
type jobEnvelope struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Cached    bool            `json:"cached"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	StatusURL string          `json:"status_url,omitempty"`
	EventsURL string          `json:"events_url,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func tenantKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var sub Submission
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, "parsing submission: %v", err)
		return
	}

	c, err := compile(&sub)
	if err != nil {
		if _, ok := err.(*badRequest); ok {
			writeError(w, http.StatusBadRequest, "%v", err)
		} else {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}

	j, body, err := s.admit(c, tenantKey(r), w)
	if err != nil {
		return // admit wrote the response (429 / 503)
	}
	if j == nil {
		// Cache hit: replay the stored payload byte for byte; free.
		w.Header().Set("X-Astrasim-Cache", "hit")
		writeJSON(w, http.StatusOK, jobEnvelope{ID: c.id, State: stateDone, Cached: true, Result: body})
		return
	}
	w.Header().Set("X-Astrasim-Cache", "miss")

	if r.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, jobEnvelope{
			ID:        j.id,
			State:     stateQueued,
			StatusURL: "/v1/jobs/" + j.id,
			EventsURL: "/v1/jobs/" + j.id + "/events",
		})
		return
	}

	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client went away; the run continues and lands in the cache.
		return
	}
	s.writeJobResult(w, j)
}

// admit applies cache, quota and single-flight policy. It returns the
// cached result when there is one (and a nil job), else the in-flight job
// of the same content address, else a newly created and scheduled job.
// On policy rejection it writes the HTTP response and returns a non-nil
// error.
func (s *Server) admit(c *compiled, tenant string, w http.ResponseWriter) (*job, []byte, error) {
	s.mu.Lock()
	if j, body, ok := s.existing(c.id); ok {
		s.mu.Unlock()
		return j, body, nil
	}
	s.cacheMisses++
	s.mu.Unlock()

	if ok, retry := s.quotas.Allow(tenant, s.now()); !ok {
		w.Header().Set("Retry-After", strconv.FormatInt(int64(retry/time.Second), 10))
		writeError(w, http.StatusTooManyRequests, "quota exhausted for %q; retry in %v", tenant, retry)
		return nil, nil, fmt.Errorf("quota")
	}

	s.mu.Lock()
	// Re-check under the lock: a duplicate may have been admitted (or
	// even finished) while the quota check ran. The token is spent either
	// way — over-charging an exact-duplicate race beats holding the lock
	// across Allow.
	if j, body, ok := s.existing(c.id); ok {
		s.mu.Unlock()
		return j, body, nil
	}
	j := newJob(c.id, c.kind, c.priority)
	s.inflight[c.id] = j
	s.runs++
	s.mu.Unlock()

	if err := s.pool.Submit(c.priority, func() { s.runJob(j, c) }); err != nil {
		s.mu.Lock()
		delete(s.inflight, c.id)
		s.runs--
		s.mu.Unlock()
		j.fail(http.StatusServiceUnavailable, "server shutting down")
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return nil, nil, err
	}
	return j, nil, nil
}

// existing finds a result or run for content address id: the cached
// result body (a hit), or else the in-flight job, which the caller then
// rides (single-flight; no quota charge). s.mu must be held. Checking both
// under s.mu closes the window in which a run finishes between the two
// checks: runJob stores its result in the cache before it leaves the
// in-flight table under s.mu, so a finished run is always found in one
// of them and never simulated twice.
func (s *Server) existing(id string) (*job, []byte, bool) {
	if body, ok := s.cache.Get(id); ok {
		s.cacheHits++
		return nil, body, true
	}
	if j, ok := s.inflight[id]; ok {
		j.mu.Lock()
		j.attached++
		j.mu.Unlock()
		s.collapsed++
		return j, nil, true
	}
	return nil, nil, false
}

// runJob executes one simulation on a pool worker. The recover backstop
// is the daemon's last line of defense: any panic that slipped past
// submission validation fails this job alone.
func (s *Server) runJob(j *job, c *compiled) {
	defer func() {
		if p := recover(); p != nil {
			j.fail(http.StatusInternalServerError, fmt.Sprintf("simulation panicked: %v", p))
			s.forget(j.id)
		}
	}()
	j.run()
	if s.testHook != nil {
		s.testHook(c)
	}
	body, err := execute(c)
	if err != nil {
		j.fail(http.StatusInternalServerError, err.Error())
		s.forget(j.id)
		return
	}
	s.cache.Put(j.id, body)
	j.complete(body)
	s.forget(j.id)
}

// forget removes a terminal job from the in-flight table; done results
// live on in the cache, failures are reported to their waiters only.
func (s *Server) forget(id string) {
	s.mu.Lock()
	delete(s.inflight, id)
	s.mu.Unlock()
}

func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	state, body, status, errMsg := j.snapshot()
	switch state {
	case stateDone:
		writeJSON(w, http.StatusOK, jobEnvelope{ID: j.id, State: state, Result: body})
	case stateFailed:
		writeJSON(w, status, jobEnvelope{ID: j.id, State: state, Error: errMsg})
	default:
		writeJSON(w, http.StatusOK, jobEnvelope{
			ID:        j.id,
			State:     state,
			StatusURL: "/v1/jobs/" + j.id,
			EventsURL: "/v1/jobs/" + j.id + "/events",
		})
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.inflight[id]
	s.mu.Unlock()
	if ok {
		s.writeJobResult(w, j)
		return
	}
	if body, ok := s.cache.Get(id); ok {
		writeJSON(w, http.StatusOK, jobEnvelope{ID: id, State: stateDone, Cached: true, Result: body})
		return
	}
	writeError(w, http.StatusNotFound, "unknown job %q", id)
}

// handleEvents streams job progress as server-sent events: one "state"
// event per transition, then a terminal "result" or "error" event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	s.mu.Lock()
	j, inflight := s.inflight[id]
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	emit := func(event string, data any) {
		b, _ := json.Marshal(data)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		flusher.Flush()
	}

	if !inflight {
		if body, ok := s.cache.Get(id); ok {
			emit("state", map[string]string{"state": stateDone})
			emit("result", json.RawMessage(body))
			return
		}
		w.WriteHeader(http.StatusNotFound)
		emit("error", map[string]string{"error": "unknown job " + id})
		return
	}

	state, _, _, _ := j.snapshot()
	emit("state", map[string]string{"state": state})
	if state == stateQueued {
		select {
		case <-j.started:
			emit("state", map[string]string{"state": stateRunning})
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	state, body, _, errMsg := j.snapshot()
	emit("state", map[string]string{"state": state})
	if state == stateDone {
		emit("result", json.RawMessage(body))
	} else {
		emit("error", map[string]string{"error": errMsg})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// statsResponse is the GET /v1/stats body.
type statsResponse struct {
	Runs        uint64 `json:"runs"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Collapsed   uint64 `json:"collapsed"`
	Inflight    int    `json:"inflight"`
	Pending     int    `json:"pending"`
	CacheSize   int    `json:"cache_size"`
	Workers     int    `json:"workers"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	resp := statsResponse{
		Runs:        s.runs,
		CacheHits:   s.cacheHits,
		CacheMisses: s.cacheMisses,
		Collapsed:   s.collapsed,
		Inflight:    len(s.inflight),
	}
	s.mu.Unlock()
	resp.Pending = s.pool.Pending()
	resp.CacheSize = s.cache.Len()
	resp.Workers = s.pool.Workers()
	writeJSON(w, http.StatusOK, resp)
}
