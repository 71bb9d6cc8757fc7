package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"refereenet/internal/collide"
	"refereenet/internal/engine"
	"refereenet/internal/sweep"
)

func init() {
	// "service-slow-gray" resolves like gray after sleeping Source.Seed
	// milliseconds — the knob that keeps a job in flight long enough for the
	// singleflight and admission tests to observe it mid-run. (The sweep
	// package's "slow-gray" twin is registered in its own test binary only.)
	engine.RegisterSource("service-slow-gray", func(spec engine.SourceSpec) (engine.Source, error) {
		time.Sleep(time.Duration(spec.Seed) * time.Millisecond)
		return collide.GraySourceForRange(spec.N, spec.Lo, spec.Hi)
	})
}

// --- harness -------------------------------------------------------------

// newTestService starts a service over a workers-sized pool the test owns,
// closed after the service — the order cmd/refereesim shuts down in.
func newTestService(t *testing.T, workers int, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Executor = sweep.NewExecutor(workers)
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		cfg.Executor.Close()
	})
	return s, ts
}

func grayPlan(n int, lo, hi uint64, units int) engine.Plan {
	var plan engine.Plan
	span := (hi - lo) / uint64(units)
	for i := 0; i < units; i++ {
		ulo := lo + uint64(i)*span
		uhi := ulo + span
		if i == units-1 {
			uhi = hi
		}
		plan.Shards = append(plan.Shards, engine.ShardSpec{
			Protocol: "hash16",
			Source:   engine.SourceSpec{Kind: "gray", N: n, Lo: ulo, Hi: uhi},
		})
	}
	return plan
}

func slowPlan(n int, hi uint64, sleepMS int64) engine.Plan {
	return engine.Plan{Shards: []engine.ShardSpec{{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "service-slow-gray", N: n, Lo: 0, Hi: hi, Seed: sleepMS},
	}}}
}

// recompute is the from-scratch answer the cache must be byte-identical to.
func recompute(t *testing.T, plan engine.Plan) engine.BatchStats {
	t.Helper()
	var total engine.BatchStats
	for _, sh := range plan.Shards {
		st, err := engine.ExecuteShard(sh)
		if err != nil {
			t.Fatal(err)
		}
		total.Merge(st)
	}
	return total
}

func postPlan(t *testing.T, ts *httptest.Server, plan engine.Plan) (int, JobView, []byte) {
	t.Helper()
	body, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, ts, body)
}

func postBody(t *testing.T, ts *httptest.Server, body []byte) (int, JobView, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decoding %s: %v", raw, err)
		}
	}
	return resp.StatusCode, v, raw
}

func getJob(t *testing.T, ts *httptest.Server, id string) (JobView, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d %s", id, resp.StatusCode, raw)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v, raw
}

// waitDone polls a job to its terminal state and returns the final snapshot.
func waitDone(t *testing.T, ts *httptest.Server, id string) (JobView, []byte) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, raw := getJob(t, ts, id)
		if v.Status == "done" || v.Status == "failed" {
			return v, raw
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %s", id, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitStatus polls until the job reports the wanted status.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, raw := getJob(t, ts, id)
		if v.Status == want {
			return
		}
		if v.Status == "done" || v.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s reached %q waiting for %q: %s", id, v.Status, want, raw)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// metricValue scrapes /metrics and returns one series' value.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			f, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("unparseable metric line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, raw)
	return 0
}

// statsJSON extracts the raw bytes of the "stats" object from a response
// body — the unit of the byte-identical guarantee.
func statsJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var probe struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	if len(probe.Stats) == 0 {
		t.Fatalf("no stats in %s", raw)
	}
	return string(probe.Stats)
}

// --- tests ---------------------------------------------------------------

// A submitted plan must execute to the same merged stats a from-scratch
// recomputation produces, with progress accounting covering every unit.
func TestServiceJobLifecycle(t *testing.T) {
	_, ts := newTestService(t, 2, Config{})
	plan := grayPlan(5, 0, 1<<10, 4)
	want := recompute(t, plan)

	code, v, _ := postPlan(t, ts, plan)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", code)
	}
	if v.Status != "queued" && v.Status != "running" {
		t.Errorf("fresh job status %q", v.Status)
	}
	final, _ := waitDone(t, ts, v.ID)
	if final.Status != "done" {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.Stats == nil || *final.Stats != want {
		t.Errorf("job stats %+v, want %+v", final.Stats, want)
	}
	if final.UnitsDone != len(plan.Shards) || final.UnitsTotal != len(plan.Shards) {
		t.Errorf("progress %d/%d, want %d/%d", final.UnitsDone, final.UnitsTotal, len(plan.Shards), len(plan.Shards))
	}
	if final.Report == nil || final.Report.Executed != len(plan.Shards) {
		t.Errorf("report %+v, want %d executed", final.Report, len(plan.Shards))
	}
}

// The memoization guarantee: a repeat submission is answered from the cache
// — no new execution — and its stats are byte-identical to both the first
// job's response and an independent recomputation.
func TestServiceCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestService(t, 2, Config{})
	plan := grayPlan(5, 0, 1<<10, 3)
	want := recompute(t, plan)

	code, v, _ := postPlan(t, ts, plan)
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code)
	}
	_, firstRaw := waitDone(t, ts, v.ID)
	execBefore := s.m.executions.Load()

	code, hit, hitRaw := postPlan(t, ts, plan)
	if code != http.StatusOK {
		t.Fatalf("repeat POST = %d, want 200", code)
	}
	if !hit.Cached {
		t.Fatalf("repeat POST not served from cache: %s", hitRaw)
	}
	if hit.ID != v.ID {
		t.Errorf("cache hit returned job %s, original was %s", hit.ID, v.ID)
	}
	if got := s.m.executions.Load(); got != execBefore {
		t.Errorf("repeat POST executed the plan: executions %d → %d", execBefore, got)
	}
	if a, b := statsJSON(t, firstRaw), statsJSON(t, hitRaw); a != b {
		t.Errorf("cached stats bytes differ:\n first: %s\n   hit: %s", a, b)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := statsJSON(t, hitRaw); got != string(wantJSON) {
		t.Errorf("cached stats %s, recomputation %s", got, wantJSON)
	}
	if hits := metricValue(t, ts, "refereeservice_cache_hits_total"); hits < 1 {
		t.Errorf("cache_hits_total = %v, want ≥ 1", hits)
	}
}

// Fingerprint normalization: two JSON encodings of the same plan — scrambled
// field order, explicit zero values — must land on one cache entry.
func TestServiceFingerprintNormalization(t *testing.T) {
	_, ts := newTestService(t, 1, Config{})
	canonical := []byte(`{"shards":[{"protocol":"hash16","source":{"kind":"gray","n":5,"lo":0,"hi":1024}}]}`)
	scrambled := []byte(`{"shards":[{"source":{"hi":1024,"seed":0,"lo":0,"n":5,"kind":"gray"},"decide":false,"sched":"","protocol":"hash16"}]}`)

	code, v, _ := postBody(t, ts, canonical)
	if code != http.StatusAccepted {
		t.Fatalf("canonical POST = %d, want 202", code)
	}
	waitDone(t, ts, v.ID)

	code, hit, raw := postBody(t, ts, scrambled)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("scrambled encoding missed the cache (code %d): %s", code, raw)
	}
	if hit.Fingerprint != v.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", v.Fingerprint, hit.Fingerprint)
	}
}

// The singleflight guarantee: N concurrent identical submissions execute the
// plan exactly once — one admitted job, N-1 coalesced onto it.
func TestServiceSingleflightExecutesOnce(t *testing.T) {
	s, ts := newTestService(t, 1, Config{MaxJobs: 2})
	plan := slowPlan(5, 1<<10, 150)
	const clients = 8

	var wg sync.WaitGroup
	codes := make([]int, clients)
	views := make([]JobView, clients)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(plan)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&views[i])
		}(i)
	}
	wg.Wait()

	admitted, coalesced := 0, 0
	var id string
	for i := range codes {
		switch {
		case codes[i] == http.StatusAccepted:
			admitted++
			id = views[i].ID
		case codes[i] == http.StatusOK && views[i].Coalesced:
			coalesced++
			if id == "" {
				id = views[i].ID
			}
		default:
			t.Errorf("client %d: code %d view %+v", i, codes[i], views[i])
		}
	}
	if admitted != 1 || coalesced != clients-1 {
		t.Errorf("admitted=%d coalesced=%d, want 1 and %d", admitted, coalesced, clients-1)
	}
	final, _ := waitDone(t, ts, id)
	if final.Status != "done" {
		t.Fatalf("job failed: %s", final.Error)
	}
	if got := s.m.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want exactly 1", got)
	}
	if got := metricValue(t, ts, "refereeservice_coalesced_total"); got != float64(clients-1) {
		t.Errorf("coalesced_total = %v, want %d", got, clients-1)
	}
}

// The admission-control guarantee: with the runner busy and the queue full,
// a further distinct submission is rejected 429 with a Retry-After hint —
// and succeeds once capacity frees up.
func TestServiceAdmissionControl(t *testing.T) {
	_, ts := newTestService(t, 1, Config{MaxJobs: 1, QueueDepth: 1})

	code, running, _ := postPlan(t, ts, slowPlan(5, 1<<10, 300))
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code)
	}
	waitStatus(t, ts, running.ID, "running")

	queuedPlan := slowPlan(5, 1<<11, 1)
	code, queued, _ := postPlan(t, ts, queuedPlan)
	if code != http.StatusAccepted {
		t.Fatalf("second POST = %d, want 202 (queued)", code)
	}

	body, _ := json.Marshal(slowPlan(5, 1<<12, 1))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated POST = %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After header")
	}
	if got := metricValue(t, ts, "refereeservice_jobs_rejected_total"); got < 1 {
		t.Errorf("jobs_rejected_total = %v, want ≥ 1", got)
	}

	// Backpressure is temporary: once the queue drains the same plan is
	// admitted (or answered from cache if the earlier twin completed).
	waitDone(t, ts, queued.ID)
	code, _, raw2 := postPlan(t, ts, slowPlan(5, 1<<12, 1))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Errorf("post-drain POST = %d: %s", code, raw2)
	}
}

// The cache is bounded: filling it past CacheSize evicts the least recently
// used entry, whose next submission runs again instead of hitting.
func TestServiceCacheLRUEviction(t *testing.T) {
	s, ts := newTestService(t, 1, Config{CacheSize: 2})
	plans := []engine.Plan{
		grayPlan(5, 0, 1<<9, 1),
		grayPlan(5, 1<<9, 1<<10, 1),
		grayPlan(5, 0, 1<<10, 2),
	}
	for _, p := range plans {
		code, v, _ := postPlan(t, ts, p)
		if code != http.StatusAccepted {
			t.Fatalf("POST = %d, want 202", code)
		}
		if final, _ := waitDone(t, ts, v.ID); final.Status != "done" {
			t.Fatalf("job failed: %s", final.Error)
		}
	}
	if got := metricValue(t, ts, "refereeservice_cache_evictions_total"); got != 1 {
		t.Errorf("cache_evictions_total = %v, want 1", got)
	}
	if got := metricValue(t, ts, "refereeservice_cache_size"); got != 2 {
		t.Errorf("cache_size = %v, want 2", got)
	}
	// plans[0] was evicted: resubmission is a fresh execution...
	execBefore := s.m.executions.Load()
	code, v, _ := postPlan(t, ts, plans[0])
	if code != http.StatusAccepted {
		t.Fatalf("evicted plan POST = %d, want 202 (re-execution)", code)
	}
	waitDone(t, ts, v.ID)
	if got := s.m.executions.Load(); got != execBefore+1 {
		t.Errorf("evicted plan did not re-execute: executions %d → %d", execBefore, got)
	}
	// ...while plans[2] (most recent) still hits.
	code, hit, _ := postPlan(t, ts, plans[2])
	if code != http.StatusOK || !hit.Cached {
		t.Errorf("recent plan missed the cache: code %d cached=%v", code, hit.Cached)
	}
}

// Submissions the registries cannot execute are turned away at the door.
func TestServiceRejectsInvalidPlans(t *testing.T) {
	_, ts := newTestService(t, 1, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"shards":[`},
		{"empty plan", `{"shards":[]}`},
		{"unknown protocol", `{"shards":[{"protocol":"nope","source":{"kind":"gray","n":5,"hi":32}}]}`},
		{"unknown source kind", `{"shards":[{"protocol":"hash16","source":{"kind":"nope","n":5,"hi":32}}]}`},
		{"unknown scheduler", `{"shards":[{"protocol":"hash16","sched":"nope","source":{"kind":"gray","n":5,"hi":32}}]}`},
		{"negative k", `{"shards":[{"protocol":"hash16","config":{"k":-1},"source":{"kind":"gray","n":5,"hi":32}}]}`},
		{"too many shards", `{"shards":[` + strings.Repeat(`{"protocol":"hash16","source":{"kind":"gray","n":5,"hi":32}},`, maxShards) +
			`{"protocol":"hash16","source":{"kind":"gray","n":5,"hi":32}}]}`},
	}
	for _, tc := range cases {
		code, _, raw := postBody(t, ts, []byte(tc.body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400: %s", tc.name, code, raw)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", resp.StatusCode)
	}
}

// ?watch=1 streams NDJSON snapshots ending with the terminal one.
func TestServiceWatchStream(t *testing.T) {
	_, ts := newTestService(t, 1, Config{})
	code, v, _ := postPlan(t, ts, slowPlan(5, 1<<10, 50))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var last JobView
	lines := 0
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
		lines++
	}
	if lines < 1 {
		t.Fatal("watch stream produced no snapshots")
	}
	if last.Status != "done" {
		t.Errorf("watch stream ended on status %q, want done: %+v", last.Status, last)
	}
	if last.Stats == nil || last.Stats.Graphs != 1<<10 {
		t.Errorf("terminal snapshot stats %+v", last.Stats)
	}
}

// The server must not close the caller's executor on shutdown — that pool
// is shared with the TCP serve surface.
func TestServiceSharedExecutorSurvivesClose(t *testing.T) {
	exec := sweep.NewExecutor(2)
	defer exec.Close()
	s := New(Config{Executor: exec})
	ts := httptest.NewServer(s.Handler())
	code, v, _ := postPlan(t, ts, grayPlan(5, 0, 1<<9, 2))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	waitDone(t, ts, v.ID)
	ts.Close()
	s.Close()
	res := exec.Execute(sweep.Unit{ID: 1, Spec: engine.ShardSpec{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "gray", N: 5, Lo: 0, Hi: 1 << 9},
	}})
	if res.Err != "" {
		t.Errorf("shared executor unusable after service close: %s", res.Err)
	}
}

// The metrics page is well-formed Prometheus text: every series the docs
// promise is present, and the histograms carry observations.
func TestServiceMetricsPage(t *testing.T) {
	_, ts := newTestService(t, 1, Config{})
	code, v, _ := postPlan(t, ts, grayPlan(5, 0, 1<<10, 2))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	waitDone(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, series := range []string{
		"refereeservice_jobs_submitted_total",
		"refereeservice_jobs_completed_total",
		"refereeservice_jobs_failed_total",
		"refereeservice_jobs_rejected_total",
		"refereeservice_cache_hits_total",
		"refereeservice_cache_misses_total",
		"refereeservice_coalesced_total",
		"refereeservice_cache_evictions_total",
		"refereeservice_executions_total",
		"refereeservice_unit_retries_total",
		"refereeservice_unit_requeues_total",
		"refereeservice_unit_failures_total",
		"refereeservice_unit_deadline_kills_total",
		"refereeservice_queue_depth",
		"refereeservice_jobs_running",
		"refereeservice_cache_size",
		"refereeservice_pool_workers",
		"refereeservice_unit_latency_seconds_bucket",
		"refereeservice_unit_latency_seconds_count",
		"refereeservice_job_latency_seconds_bucket",
		"refereeservice_job_latency_seconds_count",
	} {
		if !strings.Contains(page, series) {
			t.Errorf("metrics page missing %s", series)
		}
	}
	if got := metricValue(t, ts, "refereeservice_unit_latency_seconds_count"); got != 2 {
		t.Errorf("unit_latency count = %v, want 2", got)
	}
	if got := metricValue(t, ts, "refereeservice_job_latency_seconds_count"); got != 1 {
		t.Errorf("job_latency count = %v, want 1", got)
	}
}

// --- unit tests for the internals ---------------------------------------

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	mk := func(fp string) *job { return &job{fingerprint: fp} }
	a, b, d := mk("a"), mk("b"), mk("d")
	if ev := c.put(a); ev != 0 {
		t.Errorf("put(a) evicted %d", ev)
	}
	c.put(b)
	if _, ok := c.get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	if ev := c.put(d); ev != 1 {
		t.Errorf("put(d) evicted %d, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction; LRU order wrong")
	}
	if !c.holds(a) || !c.holds(d) {
		t.Error("a and d should be held")
	}
	if c.holds(mk("a")) {
		t.Error("holds matched a different job with the same fingerprint")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Disabled cache stores nothing.
	off := newResultCache(-1)
	off.put(a)
	if off.len() != 0 {
		t.Error("disabled cache stored an entry")
	}
}

func TestHistogramQuantileAndFormat(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 100; i++ {
		h.observe(time.Duration(i+1) * time.Millisecond) // 1ms..100ms
	}
	p50 := h.quantile(0.5)
	if p50 < 0.025 || p50 > 0.1 {
		t.Errorf("p50 = %v, want within the 25–100ms bucket span", p50)
	}
	p99 := h.quantile(0.99)
	if p99 < p50 || p99 > 0.25 {
		t.Errorf("p99 = %v, want ≥ p50 and ≤ 250ms", p99)
	}
	var buf bytes.Buffer
	h.write(&buf, "x")
	out := buf.String()
	for _, want := range []string{
		"# TYPE x histogram",
		`x_bucket{le="+Inf"} 100`,
		"x_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram rendering missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative (non-decreasing).
	prev := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "x_bucket") {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		prev = n
	}
}

// Without an executor a job's units run one at a time by direct call on the
// runner's goroutine — same stats, and the pool gauge reports one worker.
func TestServiceWithoutExecutor(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	plan := grayPlan(5, 0, 1<<10, 3)
	code, v, _ := postPlan(t, ts, plan)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	final, _ := waitDone(t, ts, v.ID)
	if final.Status != "done" || final.Stats == nil || *final.Stats != recompute(t, plan) {
		t.Errorf("job %+v, want done with the recomputed stats", final)
	}
	if got := metricValue(t, ts, "refereeservice_pool_workers"); got != 1 {
		t.Errorf("pool_workers = %v, want 1", got)
	}
}
