package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"refereenet/internal/canon"
	"refereenet/internal/engine"
	"refereenet/internal/service"
	"refereenet/internal/sweep"
)

// serviceRate is service-mix's open-loop arrival rate in jobs per second,
// and serviceSLO the latency limit slo_miss_ratio and -max-rate judge
// against. Both are fixed so that every commit is measured under the same
// load. At 200 jobs/s the service keeps about 15% of the two cores busy;
// at 50%, queueing makes its latencies swing with the host's speed
// (README.md).
const (
	serviceRate = 200.0
	serviceSLO  = 250 * time.Millisecond
)

// serviceSizes fixes service-mix's plans and load.
type serviceSizes struct {
	grayN                int
	winLogMin, winLogMax int
	canonN               int
	rate                 float64
	sloLimit             time.Duration
	hotPlans             int
	hotShare             float64
}

// svcRig is a running job service on loopback plus the benchmark's client,
// which holds two keep-alive connections: one carries every POST /jobs, the
// other every GET /jobs/{id}?watch=1. A watch holds its connection until
// the job ends, so on a shared connection a cache hit would wait behind
// somebody else's execution.
type svcRig struct {
	base   string
	submit *http.Client
	watch  *http.Client
	exec   *sweep.Executor
	close  func()
}

// startService builds the canon class table the canon plans need, then
// starts service.New over a shared 2-worker Executor — the `serve -http
// -parallel 2` shape — behind an HTTP server on a loopback port.
func startService(sz serviceSizes) (*svcRig, error) {
	if _, err := canon.ClassCount(sz.canonN); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	exec := sweep.NewExecutor(slots)
	srv := service.New(service.Config{Executor: exec})
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	oneConn := func() *http.Transport {
		return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	}
	st, wt := oneConn(), oneConn()
	r := &svcRig{base: "http://" + l.Addr().String(), submit: &http.Client{Transport: st}, watch: &http.Client{Transport: wt}, exec: exec}
	r.close = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-done
		srv.Close()
		exec.Close()
		st.CloseIdleConnections()
		wt.CloseIdleConnections()
	}
	resp, err := r.submit.Get(r.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// svcPlan is one plan service-mix submits.
type svcPlan struct {
	op   sweepOp
	body []byte
	fp   string
}

var serviceGrayProtocols = []struct {
	name   string
	decide bool
}{{"oracle-conn", true}, {"oracle-triangle", true}, {"hash16", false}}

// drawPlan draws one plan: a full canon n = 6 table (oracle-conn or
// oracle-forest) cut into 2 to 129 units, or a gray n = 7 window of 2^16 to
// 2^20 ranks (oracle-conn, oracle-triangle or hash16) cut into 2 to 16. A
// gray plan's protocol and size come from shape, the number of gray plans
// drawn before it, so that the three protocols and the five sizes take
// turns: gray misses are most of what the service executes, and with random
// sizes how much it executed, and so cpu_ms_per_op, moved with the seed.
func drawPlan(sz serviceSizes, rng *rand.Rand, canonTable bool, shape int) svcPlan {
	var op sweepOp
	if canonTable {
		protocol := "oracle-conn"
		if rng.Intn(2) == 1 {
			protocol = "oracle-forest"
		}
		total, err := canon.ClassCount(sz.canonN)
		if err != nil {
			panic(err) // built in set-up
		}
		plan, err := sweep.SplitClasses(engine.ShardSpec{Protocol: protocol, Decide: true}, sz.canonN, 0, 0, total, 2+rng.Intn(128))
		if err != nil {
			panic(err)
		}
		op = sweepOp{Protocol: protocol, Decide: true, Kind: "canon", N: sz.canonN, Hi: total, Plan: plan}
	} else {
		p := serviceGrayProtocols[shape%len(serviceGrayProtocols)]
		size := uint64(1) << uint(sz.winLogMin+shape/len(serviceGrayProtocols)%(sz.winLogMax-sz.winLogMin+1))
		lo := uint64(rng.Int63n(int64(allGraphs(sz.grayN) - size + 1)))
		op = grayOp(p.name, p.decide, sz.grayN, [][2]uint64{{lo, lo + size}}, 2+rng.Intn(15))
	}
	body, err := json.Marshal(op.Plan)
	if err != nil {
		panic(err)
	}
	fp, err := op.Plan.Fingerprint()
	if err != nil {
		panic(err)
	}
	return svcPlan{op: op, body: body, fp: fp}
}

// svcRequest is one scheduled submission.
type svcRequest struct {
	due  time.Duration // since the start of the open loop
	plan int
}

// serviceSchedule builds seed's requests over the given span: Poisson
// arrivals at rate, each a hot plan (Zipf over the hot set) with
// probability hotShare, otherwise a plan never submitted before. One plan in
// four is a canon table. In the hot set that is every fourth plan, starting
// with the fourth: a hit still sends the plan, and the service parses and
// fingerprints it, so a canon table of up to 129 units as the hottest plan
// made hits slower for some seeds than for others.
func serviceSchedule(sz serviceSizes, seed int64, rate float64, span time.Duration) ([]svcPlan, []svcRequest) {
	hotRng := seedRand(seed, "service-hot")
	seen := map[string]bool{}
	var plans []svcPlan
	grays := 0
	fresh := func(rng *rand.Rand, canonTable func() bool) int {
		for {
			p := drawPlan(sz, rng, canonTable(), grays)
			if !seen[p.fp] {
				seen[p.fp] = true
				plans = append(plans, p)
				if p.op.Kind == "gray" {
					grays++
				}
				return len(plans) - 1
			}
		}
	}
	for i := 0; i < sz.hotPlans; i++ {
		fresh(hotRng, func() bool { return i%4 == 3 })
	}
	zipf := rand.NewZipf(seedRand(seed, "service-zipf"), 1.0001, 1, uint64(sz.hotPlans-1))
	arrivals := seedRand(seed, "service-arrivals")
	var reqs []svcRequest
	t := 0.0
	for k := 0; ; k++ {
		t += arrivals.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			break
		}
		rng := opRand(seed, k)
		if rng.Float64() < sz.hotShare {
			reqs = append(reqs, svcRequest{due: due, plan: int(zipf.Uint64())})
		} else {
			reqs = append(reqs, svcRequest{due: due, plan: fresh(rng, func() bool { return rng.Intn(4) == 0 })})
		}
	}
	return plans, reqs
}

// svcOutcome is the client's view of one request.
type svcOutcome struct {
	req      svcRequest
	late     time.Duration // how late the generator released it
	start    time.Time     // when the submit connection took it
	post     time.Duration
	watchAt  time.Time // when the watch connection took it (zero: no watch)
	watch    time.Duration
	end      time.Time // when the client saw the job end
	view     service.JobView
	rejected bool // 429
	err      error
}

// openLoop releases reqs on schedule to the submit connection's goroutine,
// which hands jobs that are not yet terminal to the watch connection's
// goroutine, and waits until every request has ended. Latency counts from
// the due time, so waiting for a connection is included.
func openLoop(r *svcRig, plans []svcPlan, reqs []svcRequest) ([]svcOutcome, time.Time) {
	out := make([]svcOutcome, len(reqs))
	posts := make(chan int, len(reqs))
	watches := make(chan int, len(reqs))
	done := make(chan struct{})
	go func() {
		defer close(watches)
		for k := range posts {
			o := &out[k]
			o.start = time.Now()
			post(r, plans[o.req.plan].body, o)
			if o.err != nil || o.rejected || terminal(o.view.Status) {
				o.end = time.Now()
				continue
			}
			watches <- k
		}
	}()
	go func() {
		defer close(done)
		for k := range watches {
			o := &out[k]
			o.watchAt = time.Now()
			watch(r, o)
			o.end = time.Now()
		}
	}()
	start := time.Now()
	for k, req := range reqs {
		if d := time.Until(start.Add(req.due)); d > 0 {
			time.Sleep(d)
		}
		out[k].req = req
		out[k].late = time.Since(start.Add(req.due))
		posts <- k
	}
	close(posts)
	<-done
	return out, start
}

// post submits one plan.
func post(r *svcRig, body []byte, o *svcOutcome) {
	t := time.Now()
	resp, err := r.submit.Post(r.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	err = decodeView(resp, &o.view)
	o.post = time.Since(t)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		o.rejected = true
	case err != nil:
		o.err = err
	}
}

// watch streams a job's snapshots until it ends.
func watch(r *svcRig, o *svcOutcome) {
	t := time.Now()
	defer func() { o.watch = time.Since(t) }()
	resp, err := r.watch.Get(r.base + "/jobs/" + o.view.ID + "?watch=1")
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var v service.JobView
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			o.err = err
			return
		}
		o.view = v
	}
	io.Copy(io.Discard, resp.Body)
	if !terminal(o.view.Status) {
		o.err = fmt.Errorf("watch of job %s ended at status %q: %v", o.view.ID, o.view.Status, sc.Err())
	}
}

func terminal(status string) bool { return status == "done" || status == "failed" }

func decodeView(resp *http.Response, v *service.JobView) error {
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /jobs: %s: %s", resp.Status, strings.TrimSpace(string(buf)))
	}
	return json.Unmarshal(buf, v)
}

// scrape reads the service's counters from /metrics.
func scrape(r *svcRig) (map[string]float64, error) {
	resp, err := r.submit.Get(r.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

func (o svcOutcome) latency(start time.Time) time.Duration { return o.end.Sub(start.Add(o.req.due)) }

// svcPhase is one open-loop phase on a fresh service: its outcomes, its
// counters and what it cost.
type svcPhase struct {
	plans    []svcPlan
	out      []svcOutcome
	start    time.Time
	cost     *phaseCost
	counters map[string]float64 // deltas over the phase
	rig      *svcRig
}

// runPhase starts a fresh service, drives the schedule through it and
// returns with the service still running (the caller closes phase.rig).
func runPhase(sz serviceSizes, seed int64, rate float64, span time.Duration) (*svcPhase, error) {
	r, err := startService(sz)
	if err != nil {
		return nil, err
	}
	plans, reqs := serviceSchedule(sz, seed, rate, span)
	before, err := scrape(r)
	if err != nil {
		r.close()
		return nil, err
	}
	cost := startPhase()
	out, start := openLoop(r, plans, reqs)
	cost.end()
	ph := &svcPhase{plans: plans, out: out, start: start, cost: cost, rig: r}
	after, err := scrape(r)
	if err != nil {
		r.close()
		return nil, err
	}
	ph.counters = map[string]float64{}
	for k, v := range after {
		ph.counters[k] = v - before[k]
	}
	return ph, nil
}

// serviceStats summarizes a phase's client view.
type serviceStats struct {
	all, hits, misses, queueWait []time.Duration
	late                         []time.Duration
	failed, sloMiss              int
	graphs                       float64
	distinct                     int
}

func (ph *svcPhase) stats(limit time.Duration) serviceStats {
	var s serviceStats
	seen := map[int]bool{}
	for _, o := range ph.out {
		seen[o.req.plan] = true
		lat := o.latency(ph.start)
		s.all = append(s.all, lat)
		s.late = append(s.late, o.late)
		if o.err != nil || o.rejected || o.view.Status != "done" {
			s.failed++
			s.sloMiss++
			continue
		}
		if lat > limit {
			s.sloMiss++
		}
		s.graphs += float64(o.view.Stats.Graphs)
		switch {
		case o.view.Cached:
			s.hits = append(s.hits, lat)
		case !o.view.Coalesced:
			s.misses = append(s.misses, lat)
			s.queueWait = append(s.queueWait, lat-time.Duration(o.view.ElapsedMS)*time.Millisecond)
		}
	}
	s.distinct = len(seen)
	return s
}

// verify recomputes every distinct plan's answer as the sum of
// engine.ExecuteShard over its shards, on two goroutines, and checks each
// job's stats against it byte for byte; canon tables must also match the
// OEIS counts.
func (ph *svcPhase) verify(log io.Writer) (bool, error) {
	used := make([]bool, len(ph.plans))
	for _, o := range ph.out {
		if o.err == nil && !o.rejected {
			used[o.req.plan] = true
		}
	}
	var ids []int
	for id, u := range used {
		if u {
			ids = append(ids, id)
		}
	}
	want := make([][]byte, len(ph.plans))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for g := 0; g < slots; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ids); i += slots {
				p := ph.plans[ids[i]]
				var sum engine.BatchStats
				for _, spec := range p.op.Plan.Shards {
					st, err := engine.ExecuteShard(spec)
					if err != nil {
						errs[i] = err
						break
					}
					sum.Merge(st)
				}
				if exp := p.op.expected(sum.Accepted); sum != exp {
					errs[i] = fmt.Errorf("plan %d: recomputed %+v, definition says %+v", ids[i], sum, exp)
				}
				if p.op.Kind == "canon" {
					acc := connectedLabelled(p.op.N)
					if p.op.Protocol == "oracle-forest" {
						acc = labelledForests(p.op.N)
					}
					if sum.Accepted != acc {
						errs[i] = fmt.Errorf("plan %d: canon %s accepted %d, OEIS %d", ids[i], p.op.Protocol, sum.Accepted, acc)
					}
				}
				want[ids[i]], _ = json.Marshal(sum)
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return false, err
	}
	correct := true
	for k, o := range ph.out {
		if o.err != nil || o.rejected || o.view.Stats == nil {
			continue
		}
		got, _ := json.Marshal(*o.view.Stats)
		if !bytes.Equal(got, want[o.req.plan]) {
			correct = false
			fmt.Fprintf(log, "bench: request %d (plan %d) answered %s, want %s\n", k, o.req.plan, got, want[o.req.plan])
		}
	}
	return correct, nil
}

func msList(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// runService runs service-mix: an open loop against a fresh service for
// the measured span (half of it, then a traced half on another fresh
// service, under --trace 1).
func runService(cfg runConfig, rep *report) (bool, int, int, error) {
	sz := cfg.sz.svc
	span := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		span /= 2
	}
	ph, err := runPhase(sz, cfg.seed, sz.rate, span)
	if err != nil {
		return false, 0, 0, err
	}
	ph.rig.close()

	st := ph.stats(sz.sloLimit)
	s := summarize(st.all)
	ops := len(ph.out)
	rep.endToEnd(cfg, s, ph.cost)
	rep.add("graphs_per_s", st.graphs/ph.cost.elapsed.Seconds(), "graphs/s")
	rep.add("fail_ratio", float64(st.failed)/float64(ops), "ratio")
	rep.add("slo_miss_ratio", float64(st.sloMiss)/float64(ops), "ratio")
	serviceMetrics(rep, ph, st)

	var traced *svcPhase
	if cfg.trace {
		traced, err = runPhase(sz, cfg.seed, sz.rate, span)
		if err != nil {
			return false, 0, 0, err
		}
		err = traceService(cfg, rep, s.P50, traced)
		traced.rig.close()
		if err != nil {
			return false, 0, 0, err
		}
	}

	correct, err := ph.verify(cfg.log)
	if err != nil {
		return false, 0, 0, err
	}
	attempted, failed := ops, st.failed
	if traced != nil {
		ok, err := traced.verify(cfg.log)
		if err != nil {
			return false, 0, 0, err
		}
		correct = correct && ok
		attempted += len(traced.out)
		failed += traced.stats(sz.sloLimit).failed
	}
	if execs := ph.counters["refereeservice_executions_total"]; execs != float64(st.distinct) {
		correct = false
		fmt.Fprintf(cfg.log, "bench: %v executions for %d distinct plans\n", execs, st.distinct)
	}
	return correct, attempted, failed, nil
}

// serviceMetrics adds the job plane's own metrics.
func serviceMetrics(rep *report, ph *svcPhase, st serviceStats) {
	req := float64(len(ph.out))
	if len(st.hits) > 0 {
		rep.add("service.hit_p50_ms", median(msList(st.hits)), "ms")
	}
	if len(st.misses) > 0 {
		m := summarize(st.misses)
		rep.add("service.miss_p50_ms", m.P50, "ms")
		rep.add("service.miss_tail_ms", m.Tail, "ms")
		rep.add("service.queue_wait_p50_ms", median(msList(st.queueWait)), "ms")
	}
	rep.add("service.hit_ratio", ph.counters["refereeservice_cache_hits_total"]/req, "ratio")
	rep.add("service.coalesced_ratio", ph.counters["refereeservice_coalesced_total"]/req, "ratio")
	rep.add("service.executions_per_plan", ph.counters["refereeservice_executions_total"]/float64(st.distinct), "ratio")
	late := sortedCopy(msList(st.late))
	rep.add("loadgen.late_p99_ms", quantile(late, 0.99), "ms")
	if quantile(late, 0.99) > 5 {
		rep.note("loadgen ran late (p99 %.2f ms > 5 ms): this run's latencies are not valid", quantile(late, 0.99))
	}
}

// traceService is the traced half of service-mix: client spans per job
// (the job from its due time, its POST and its watch; the job's self time
// is its wait for the two connections), then the first executed jobs'
// plans replayed through sweep.Run over the pool, as the service runs
// them, and unit by unit through the ladder. Coverage for the service is
// (connection wait + two HTTP exchanges + replayed execution) ÷ client
// latency over those jobs; the rest is time the job waited inside the
// service.
func traceService(cfg runConfig, rep *report, untracedP50 float64, ph *svcPhase) error {
	rec := newRecorder(math.MaxInt)
	rec.epoch = ph.start
	jobSpan := make([]int, len(ph.out))
	for k, o := range ph.out {
		jobSpan[k] = rec.add(span{Trace: k, Name: "job", Start: rec.ns(ph.start.Add(o.req.due)), End: rec.ns(o.end), Unit: -1, Slot: -1, Job: o.view.ID})
		rec.add(span{Trace: k, Parent: jobSpan[k], Name: "post", Start: rec.ns(o.start), End: rec.ns(o.start.Add(o.post)), Unit: -1, Slot: 0, Job: o.view.ID})
		if !o.watchAt.IsZero() {
			rec.add(span{Trace: k, Parent: jobSpan[k], Name: "watch", Start: rec.ns(o.watchAt), End: rec.ns(o.watchAt.Add(o.watch)), Unit: -1, Slot: 1, Job: o.view.ID})
		}
	}
	self := selfTimes(rec.spans)
	var hitPost []float64
	var lat []time.Duration
	type miss struct {
		plan    int
		wait    time.Duration // for the two connections
		latency time.Duration
	}
	var misses []miss
	for k, o := range ph.out {
		lat = append(lat, o.latency(ph.start))
		if o.err == nil && o.view.Cached {
			hitPost = append(hitPost, ms(o.post))
		}
		if o.err == nil && !o.view.Cached && !o.view.Coalesced && len(misses) < replayOps {
			misses = append(misses, miss{plan: o.req.plan, wait: self[jobSpan[k]], latency: o.latency(ph.start)})
		}
	}
	tracedP50 := summarize(lat).P50
	rep.add("trace.op_p50_ms", tracedP50, "ms")
	rep.add("trace.overhead_ratio", tracedP50/untracedP50-1, "ratio")
	httpExchange := time.Duration(median(hitPost) * float64(time.Millisecond))
	rep.add("service.http_exchange_ms", ms(httpExchange), "ms")

	// Replay: each executed job's plan through sweep.Run over the pool
	// transport, recorded like a sweep op, then its units through the ladder.
	ts, err := newReplay(rec, poolTransport{ph.rig.exec}, ph.rig.exec, true, false)
	if err != nil {
		return err
	}
	defer ts.close()
	tr := recordingTransport{inner: poolTransport{ph.rig.exec}, rec: rec}
	var explained, total time.Duration
	units := 0
	for j, m := range misses {
		p := ph.plans[m.plan]
		trace := len(ph.out) + j
		end := rec.beginOp(trace, "op")
		t := time.Now()
		res, err := sweep.Run(p.op.Plan, sweep.Options{Transport: tr, Workers: min(slots, len(p.op.Plan.Shards))})
		d := time.Since(t)
		end()
		if err != nil {
			return err
		}
		units += res.Units
		explained += m.wait + 2*httpExchange + d
		total += m.latency
		if err := ts.replayOp(trace, p.op.Plan); err != nil {
			return fmt.Errorf("job replay %d: %w", j, err)
		}
	}
	wall, busy := slotTime(rec.spans, func(trace int) bool { return trace >= len(ph.out) })
	rep.add("sweep.slot_wait_ratio", 1-float64(busy)/float64(slots*wall), "ratio")
	sums := sumCosts(ts.costs)
	ts.rows = ladderRows(sums, false, slots*wall-busy, slots*wall)
	coverage := float64(explained) / float64(total)
	if total == 0 {
		coverage = math.NaN()
	}
	rep.add("trace.coverage_ratio", coverage, "ratio")
	unitMetrics(rep, ts.costs, sums)
	rep.notes = append(rep.notes, ladderLines(ts.rows)...)
	rep.add("sweep.units_per_op", float64(units)/float64(max(1, len(misses))), "count")
	path, err := writeTrace(cfg.dir, traceFile{Workload: "service-mix", Seed: cfg.seed, Spans: rec.spans, Ladder: ts.rows, Metrics: reportFloats(rep)})
	if err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}

// findMaxRate bisects, in log space, the highest open-loop rate at which a
// fresh service meets the latency limit at op_tail_ms with nothing failed
// and no growing backlog (the last fifth of the requests no slower at the
// median than the limit). Each step runs for five seconds. The generator's
// lateness is printed but not judged: a late generator only lightens the
// load.
func findMaxRate(w io.Writer, cfg runConfig) error {
	sz := cfg.sz.svc
	meets := func(rate float64) (bool, error) {
		ph, err := runPhase(sz, cfg.seed, rate, 5*time.Second)
		if err != nil {
			return false, err
		}
		ph.rig.close()
		st := ph.stats(sz.sloLimit)
		s := summarize(st.all)
		lastFifth := st.all[len(st.all)*4/5:]
		late := quantile(sortedCopy(msList(st.late)), 0.99)
		ok := st.failed == 0 && s.Tail <= ms(sz.sloLimit) && median(msList(lastFifth)) <= ms(sz.sloLimit)
		fmt.Fprintf(w, "# rate %.1f jobs/s: tail %.2f ms (q %.4f), late p99 %.2f ms, failed %d, cpu %.2f -> %v\n",
			rate, s.Tail, s.Q, late, st.failed, ph.cost.cpu.Seconds()/ph.cost.elapsed.Seconds()/slots, ok)
		return ok, nil
	}
	lo, hi := sz.rate/4, sz.rate*16
	for step := 0; step < 7; step++ {
		mid := math.Sqrt(lo * hi)
		ok, err := meets(mid)
		if err != nil {
			return err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	fmt.Fprintf(w, "max_rate_jobs_per_s %g jobs/s\n", lo)
	return nil
}
