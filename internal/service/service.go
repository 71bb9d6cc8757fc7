// Package service promotes the sweep stack to sweep-as-a-service: a
// multi-tenant HTTP job API over the same plan/execute/merge pipeline the
// CLI coordinator drives. The paper's referee model is one-shot — many
// parties submit, one referee aggregates and answers — which is exactly a
// production sweep service's access pattern: millions of users mostly
// re-ask the same Plan, and should be answered from memoized BatchStats,
// not recomputation.
//
// The layers, each independently testable:
//
//   - job API: POST /jobs submits an engine.Plan (the same JSON the CLI's
//     -dump-plan emits) and returns a job; GET /jobs/{id} snapshots progress
//     and merged stats, or streams NDJSON snapshots with ?watch=1. Jobs
//     execute through sweep.Run over the shared executor pool, so every
//     robustness feature of the coordinator (retries, per-unit deadlines,
//     exactly-once merge) applies unchanged.
//   - result cache: completed jobs are memoized by engine.Plan.Fingerprint()
//     in a bounded LRU. A repeat submission is answered from the cache
//     without executing anything; concurrent identical submissions coalesce
//     onto one in-flight job (singleflight), so a thundering herd of the
//     same question executes the plan exactly once.
//   - admission control: a bounded queue in front of a fixed set of job
//     runners. A submission that finds the queue full is rejected with
//     429 + Retry-After — backpressure, never unbounded goroutines — and
//     execution concurrency is capped by the shared sweep.Executor pool no
//     matter how many jobs run.
//   - metrics: GET /metrics exposes queue depth, cache hit/miss/coalesce
//     counters, per-unit and per-job latency histograms, and the aggregated
//     SweepReport robustness counters in the Prometheus text format.
//
// cmd/refereesim wires this behind `serve -http`, sharing one executor pool
// between raw TCP sweep units and HTTP jobs; cmd/loadgen is the matching
// load harness. docs/service.md specifies the API.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"refereenet/internal/engine"
	"refereenet/internal/sweep"
)

// Config sizes the service. The zero value is usable: every field has a
// default chosen for a small single-machine deployment.
type Config struct {
	// Executor is the pool jobs execute over — typically the same pool the
	// TCP serve daemon executes units on, so both surfaces contend for one
	// bounded concurrency. The caller owns it: the server never creates or
	// closes a pool. Nil executes each job's units one at a time on its
	// runner's goroutine.
	Executor *sweep.Executor
	// MaxJobs is how many jobs execute concurrently (default 2). Each
	// running job drives up to the pool's worker count of units at once,
	// but total shard concurrency is still capped by the pool.
	MaxJobs int
	// QueueDepth bounds how many admitted jobs may wait for a runner
	// (default 16). A submission beyond it is answered 429 + Retry-After.
	QueueDepth int
	// CacheSize bounds the result cache in entries (default 256; 0 uses
	// the default, negative disables caching).
	CacheSize int
	// Log receives job lifecycle lines; nil discards.
	Log io.Writer
}

const (
	// jobHistory bounds retained terminal job records. Evicted job IDs stop
	// resolving on GET; cached results keep their job retrievable until the
	// cache itself evicts them.
	jobHistory = 1024
	// maxShards rejects plans larger than this many shards.
	maxShards = 4096
	// unitRetries is the per-unit retry budget inside a job. Jobs run with
	// no per-unit deadline.
	unitRetries = 1
	// retryAfter is the hint on 429 responses.
	retryAfter = time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxJobs < 1 {
		c.MaxJobs = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	return c
}

type jobStatus string

const (
	statusQueued  jobStatus = "queued"
	statusRunning jobStatus = "running"
	statusDone    jobStatus = "done"
	statusFailed  jobStatus = "failed"
)

// job is one submitted plan's lifecycle record. Identity fields are
// immutable after construction; the rest is guarded by mu. done closes at
// the terminal transition, which is what ?watch=1 streams and coalesced
// waiters block on.
type job struct {
	id          string
	fingerprint string
	plan        engine.Plan
	submitted   time.Time

	mu         sync.Mutex
	status     jobStatus
	unitsDone  int
	unitsTotal int
	stats      engine.BatchStats
	report     sweep.SweepReport
	errMsg     string
	started    time.Time
	finished   time.Time
	done       chan struct{}
}

// JobView is the wire snapshot of a job — what POST /jobs and GET /jobs/{id}
// return. Stats and Report appear once the job is done; Cached and Coalesced
// describe how this particular response was produced, not the job itself.
type JobView struct {
	ID          string             `json:"id"`
	Status      string             `json:"status"`
	Fingerprint string             `json:"fingerprint"`
	UnitsDone   int                `json:"units_done"`
	UnitsTotal  int                `json:"units_total"`
	Stats       *engine.BatchStats `json:"stats,omitempty"`
	Report      *ReportView        `json:"report,omitempty"`
	Error       string             `json:"error,omitempty"`
	Cached      bool               `json:"cached,omitempty"`
	Coalesced   bool               `json:"coalesced,omitempty"`
	ElapsedMS   int64              `json:"elapsed_ms"`
}

// ReportView is the job-facing slice of sweep.SweepReport: the robustness
// counters a client might act on, minus the stats (carried separately).
type ReportView struct {
	Units         int `json:"units"`
	Executed      int `json:"executed"`
	Failed        int `json:"failed,omitempty"`
	Retries       int `json:"retries,omitempty"`
	Requeues      int `json:"requeues,omitempty"`
	DeadlineKills int `json:"deadline_kills,omitempty"`
}

func (j *job) setProgress(done, total int) {
	j.mu.Lock()
	j.unitsDone, j.unitsTotal = done, total
	j.mu.Unlock()
}

func (j *job) start() {
	j.mu.Lock()
	j.status = statusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

func (j *job) complete(rep sweep.SweepReport) {
	j.mu.Lock()
	j.status = statusDone
	j.stats = rep.Stats
	j.report = rep
	j.unitsDone, j.unitsTotal = rep.Units, rep.Units
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
}

func (j *job) fail(err error) {
	j.mu.Lock()
	j.status = statusFailed
	j.errMsg = err.Error()
	j.finished = time.Now()
	close(j.done)
	j.mu.Unlock()
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == statusDone || j.status == statusFailed
}

func (j *job) view(cached, coalesced bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Status:      string(j.status),
		Fingerprint: j.fingerprint,
		UnitsDone:   j.unitsDone,
		UnitsTotal:  j.unitsTotal,
		Error:       j.errMsg,
		Cached:      cached,
		Coalesced:   coalesced,
	}
	if j.status == statusDone {
		st := j.stats
		v.Stats = &st
		v.Report = &ReportView{
			Units:         j.report.Units,
			Executed:      j.report.Executed,
			Failed:        j.report.Failed,
			Retries:       j.report.Retries,
			Requeues:      j.report.Requeues,
			DeadlineKills: j.report.DeadlineKills,
		}
	}
	switch {
	case j.started.IsZero():
	case j.finished.IsZero():
		v.ElapsedMS = time.Since(j.started).Milliseconds()
	default:
		v.ElapsedMS = j.finished.Sub(j.started).Milliseconds()
	}
	return v
}

// Server is the sweep-as-a-service front end. Create with New, mount
// Handler on an http server, Close to drain.
type Server struct {
	cfg  Config
	exec *sweep.Executor
	log  io.Writer
	m    *metrics

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job          // submission order, for history eviction
	inflight map[string]*job // fingerprint → queued/running job (singleflight)
	cache    *resultCache
	nextID   uint64
	closed   bool

	queue   chan *job
	stop    chan struct{}
	running atomic.Int64
	wg      sync.WaitGroup
}

// New builds a Server and starts its job runners.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		exec:     cfg.Executor,
		log:      cfg.Log,
		m:        newMetrics(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    newResultCache(cfg.CacheSize),
		queue:    make(chan *job, cfg.QueueDepth),
		stop:     make(chan struct{}),
	}
	s.wg.Add(cfg.MaxJobs)
	for i := 0; i < cfg.MaxJobs; i++ {
		go s.runner()
	}
	return s
}

// Close stops accepting and running new jobs, waits for in-flight jobs to
// finish, and fails whatever was still queued. The Executor stays open: its
// owner closes it once every surface sharing it has drained.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			j.fail(errors.New("service shut down before the job ran"))
			s.m.jobsFailed.Add(1)
			s.mu.Lock()
			delete(s.inflight, j.fingerprint)
			s.mu.Unlock()
		default:
			return
		}
	}
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.log != nil {
		fmt.Fprintf(s.log, format+"\n", args...)
	}
}

// Handler returns the service's HTTP mux: POST /jobs, GET /jobs,
// GET /jobs/{id} (+?watch=1), GET /metrics, GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return mux
}

// maxBodyBytes bounds one submitted plan (4 MiB ≈ 5× the largest admissible
// plan; anything longer is a hostile or broken client).
const maxBodyBytes = 4 << 20

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// validatePlan rejects plans this binary's registries cannot execute —
// cheaply, at the door, so a typo'd protocol name costs a 400 instead of a
// job's retry budget.
func validatePlan(plan engine.Plan) error {
	if len(plan.Shards) == 0 {
		return errors.New("plan has no shards")
	}
	if len(plan.Shards) > maxShards {
		return fmt.Errorf("plan has %d shards, limit %d", len(plan.Shards), maxShards)
	}
	kinds := make(map[string]bool)
	for _, k := range engine.SourceKinds() {
		kinds[k] = true
	}
	for i, sh := range plan.Shards {
		if _, ok := engine.Lookup(sh.Protocol); !ok {
			return fmt.Errorf("shard %d: unknown protocol %q", i, sh.Protocol)
		}
		if sh.Sched != "" && sh.Sched != "serial" {
			if _, ok := engine.SchedulerByName(sh.Sched); !ok {
				return fmt.Errorf("shard %d: unknown scheduler %q", i, sh.Sched)
			}
		}
		if !kinds[sh.Source.Kind] {
			return fmt.Errorf("shard %d: unknown source kind %q", i, sh.Source.Kind)
		}
	}
	return nil
}

// handleSubmit is POST /jobs: decode the plan, fingerprint it, and answer
// from the cache, an in-flight twin, or a freshly admitted job — in that
// order. The cache/singleflight/admission decision happens atomically under
// s.mu, so N concurrent identical submissions resolve to exactly one
// execution no matter how they interleave.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var plan engine.Plan
	if err := json.NewDecoder(r.Body).Decode(&plan); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed plan: %v", err)
		return
	}
	if err := validatePlan(plan); err != nil {
		writeErr(w, http.StatusBadRequest, "invalid plan: %v", err)
		return
	}
	fp, err := plan.Fingerprint()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "plan does not fingerprint: %v", err)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "service is shutting down")
		return
	}
	if j, ok := s.cache.get(fp); ok {
		s.m.cacheHits.Add(1)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, j.view(true, false))
		return
	}
	if j, ok := s.inflight[fp]; ok {
		s.m.cacheMisses.Add(1)
		s.m.coalesced.Add(1)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, j.view(false, true))
		return
	}
	s.nextID++
	j := &job{
		id:          "j" + strconv.FormatUint(s.nextID, 10),
		fingerprint: fp,
		plan:        plan,
		submitted:   time.Now(),
		status:      statusQueued,
		unitsTotal:  len(plan.Shards),
		done:        make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		// Admission control: the queue is the only buffer, and it is full.
		// Reject with backpressure rather than queueing unboundedly — the
		// client retries after the hint, by which time a runner has drained
		// a slot (or the same plan is in the cache).
		s.m.jobsRejected.Add(1)
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		writeErr(w, http.StatusTooManyRequests, "job queue full (%d queued); retry later", s.cfg.QueueDepth)
		return
	}
	s.m.cacheMisses.Add(1)
	s.m.jobsSubmitted.Add(1)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.inflight[fp] = j
	s.evictHistoryLocked()
	s.mu.Unlock()

	s.logf("service: job %s admitted: %d shards, fingerprint %.12s", j.id, len(plan.Shards), fp)
	w.Header().Set("Location", "/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view(false, false))
}

// evictHistoryLocked drops the oldest terminal jobs beyond the history
// bound. Jobs still answering cache hits are kept so a cached POST's job ID
// stays GETtable; the cache's own eviction makes them reapable later.
func (s *Server) evictHistoryLocked() {
	if len(s.jobs) <= jobHistory {
		return
	}
	kept := s.order[:0]
	for i, j := range s.order {
		if len(s.jobs) <= jobHistory {
			kept = append(kept, s.order[i:]...)
			break
		}
		if j.terminal() && !s.cache.holds(j) {
			delete(s.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, j := range s.order {
		views = append(views, j.view(false, false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, views)
}

// handleJob is GET /jobs/{id}: one snapshot, or — with ?watch=1 — a stream
// of NDJSON snapshots, one per progress change (coalesced to 4/s), ending
// with the terminal snapshot.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, j.view(false, false))
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	for {
		v := j.view(false, false)
		if err := enc.Encode(v); err != nil {
			return
		}
		if canFlush {
			flusher.Flush()
		}
		if v.Status == string(statusDone) || v.Status == string(statusFailed) {
			return
		}
		select {
		case <-j.done:
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics renders the Prometheus-format counter page.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}

func (s *Server) writeMetrics(w io.Writer) {
	m := s.m
	counterLine(w, "refereeservice_jobs_submitted_total", m.jobsSubmitted.Load())
	counterLine(w, "refereeservice_jobs_completed_total", m.jobsCompleted.Load())
	counterLine(w, "refereeservice_jobs_failed_total", m.jobsFailed.Load())
	counterLine(w, "refereeservice_jobs_rejected_total", m.jobsRejected.Load())
	counterLine(w, "refereeservice_cache_hits_total", m.cacheHits.Load())
	counterLine(w, "refereeservice_cache_misses_total", m.cacheMisses.Load())
	counterLine(w, "refereeservice_coalesced_total", m.coalesced.Load())
	counterLine(w, "refereeservice_cache_evictions_total", m.cacheEvictions.Load())
	counterLine(w, "refereeservice_executions_total", m.executions.Load())
	counterLine(w, "refereeservice_unit_retries_total", m.unitRetries.Load())
	counterLine(w, "refereeservice_unit_requeues_total", m.unitRequeues.Load())
	counterLine(w, "refereeservice_unit_failures_total", m.unitFailures.Load())
	counterLine(w, "refereeservice_unit_deadline_kills_total", m.deadlineKills.Load())
	s.mu.Lock()
	cacheLen := s.cache.len()
	s.mu.Unlock()
	gaugeLine(w, "refereeservice_queue_depth", len(s.queue))
	gaugeLine(w, "refereeservice_jobs_running", int(s.running.Load()))
	gaugeLine(w, "refereeservice_cache_size", cacheLen)
	gaugeLine(w, "refereeservice_pool_workers", s.exec.Workers())
	m.unitLatency.write(w, "refereeservice_unit_latency_seconds")
	m.jobLatency.write(w, "refereeservice_job_latency_seconds")
}

// runner is one job-execution slot. MaxJobs of these drain the admission
// queue; each runs one job at a time through the shared pool.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one admitted job's plan through sweep.Run over the shared
// pool, by direct call, then publishes the outcome: terminal job state
// first, then cache insertion and singleflight release, so no POST can
// observe a cached or coalesced job that is not yet terminal-consistent.
func (s *Server) runJob(j *job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	j.start()
	s.m.executions.Add(1)
	workers := s.exec.Workers()
	if workers > len(j.plan.Shards) {
		workers = len(j.plan.Shards)
	}
	start := time.Now()
	rep, err := sweep.Run(j.plan, sweep.Options{
		Transport: timedTransport{sweep.InProcess{Executor: s.exec}, s.m.unitLatency},
		Workers:   workers,
		Retries:   unitRetries,
		Progress:  j.setProgress,
		Log:       s.log,
	})
	s.m.jobLatency.observe(time.Since(start))
	s.m.unitRetries.Add(uint64(rep.Retries))
	s.m.unitRequeues.Add(uint64(rep.Requeues))
	s.m.unitFailures.Add(uint64(rep.Failed))
	s.m.deadlineKills.Add(uint64(rep.DeadlineKills))

	if err != nil {
		j.fail(err)
		s.m.jobsFailed.Add(1)
		s.logf("service: job %s failed: %v", j.id, err)
	} else {
		j.complete(rep)
		s.m.jobsCompleted.Add(1)
		s.logf("service: job %s done: %d units, %d graphs", j.id, rep.Units, rep.Stats.Graphs)
	}
	s.mu.Lock()
	if err == nil {
		s.m.cacheEvictions.Add(uint64(s.cache.put(j)))
	}
	delete(s.inflight, j.fingerprint)
	s.mu.Unlock()
}

// timedTransport is the local transport with each unit's round trip timed
// for the unit-latency histogram. Like InProcess it is its own connection.
// The pool's close-guard (executor.go) makes a round trip racing the owner's
// Close an in-band unit error, which the coordinator charges to the retry
// budget.
type timedTransport struct {
	sweep.InProcess
	latency *histogram
}

// Dial implements sweep.Transport.
func (t timedTransport) Dial() (sweep.Conn, error) { return t, nil }

// RoundTrip implements sweep.Conn.
func (t timedTransport) RoundTrip(u sweep.Unit) (sweep.Result, error) {
	start := time.Now()
	res, err := t.InProcess.RoundTrip(u)
	t.latency.observe(time.Since(start))
	return res, err
}
