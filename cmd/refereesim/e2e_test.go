package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"refereenet/internal/collide"
	"refereenet/internal/engine"
	"refereenet/internal/sweep"
)

// The end-to-end suite drives the real `refereesim sweep` and `refereesim
// serve` flag surfaces in-process: runSweep coordinators against loopback
// runServe daemons. Process signals have in-process stand-ins — cancelling a
// daemon's context is SIGTERM, killableWorker is kill -9 of a worker, and a
// coordinator whose transport dies after k units is a killed coordinator.

// space is one labelled-graph size and the exact counts its sweeps must
// merge to: all 2^C(n,2) graphs, the connected ones (OEIS A001187) and the
// forests (A001858).
type space struct {
	n                          int
	graphs, connected, forests uint64
}

var (
	n6 = space{6, 1 << 15, 26704, 2932}
	n7 = space{7, 1 << 21, 1866256, 36961}
)

// totals is what a scenario pins on a sweep's stats line.
type totals struct{ graphs, accepted uint64 }

func TestRefereesim(t *testing.T) {
	sp := n7
	if testing.Short() {
		sp = n6
	}
	n := strconv.Itoa(sp.n)
	a := serve(t, "-parallel", "2")
	b := serve(t, "-parallel", "2")
	fleet := a.addr + ";" + b.addr // ';' is -connect's alternative separator

	oracleConn := []string{"-protocol", "oracle-conn", "-decide"}
	oracleDiam3 := []string{"-protocol", "oracle-diam3", "-decide"}
	canonConn := []string{"-source", "canon", "-protocol", "oracle-conn", "-decide"}
	canonForest := []string{"-source", "canon", "-protocol", "oracle-forest", "-decide"}
	chunked := []string{"-sched", "chunked"}

	tests := []struct {
		name string
		// sweeps are runSweep invocations over the two-daemon fleet (each
		// gets -n, -units 16 and -connect appended): every one must print
		// the same stats line, byte for byte, carrying want.
		sweeps [][]string
		want   totals
		// n, when set, replaces the suite's graph size for sweeps.
		n string
		// rejected are invocations that must fail with an error naming
		// wantErr.
		rejected [][]string
		wantErr  string
		// run choreographs a scenario that needs its own daemons.
		run func(t *testing.T)
	}{
		{
			name:   "fleet-exact-counts",
			sweeps: [][]string{oracleConn},
			want:   totals{sp.graphs, sp.connected},
		},
		{
			name:   "vector-eq-chunked/degree",
			sweeps: [][]string{{"-protocol", "degree"}, {"-protocol", "degree", "-sched", "chunked"}},
			want:   totals{sp.graphs, 0},
		},
		{
			name:   "vector-eq-chunked/mod3",
			sweeps: [][]string{{"-protocol", "mod3"}, {"-protocol", "mod3", "-sched", "chunked"}},
			want:   totals{sp.graphs, 0},
		},
		{
			name:   "vector-eq-chunked/oracle-conn",
			sweeps: [][]string{oracleConn, slices.Concat(oracleConn, chunked)},
			want:   totals{sp.graphs, sp.connected},
		},
		{
			name:   "vector-eq-chunked/oracle-diam3",
			sweeps: [][]string{oracleDiam3, slices.Concat(oracleDiam3, chunked)},
			want:   totals{n6.graphs, 23464},
			n:      "6",
		},
		{
			name:   "canon-eq-gray/oracle-conn",
			sweeps: [][]string{canonConn, slices.Concat(canonConn, chunked), oracleConn},
			want:   totals{sp.graphs, sp.connected},
		},
		{
			name:   "canon-vector-eq-chunked/oracle-forest",
			sweeps: [][]string{canonForest, slices.Concat(canonForest, chunked)},
			want:   totals{sp.graphs, sp.forests},
		},
		{
			name:     "rejects-workers-below-one",
			rejected: [][]string{{"-n", "5", "-workers", "0"}, {"-n", "5", "-workers", "-3"}},
			wantErr:  "-workers",
		},
		{
			name:     "rejects-negative-retries",
			rejected: [][]string{{"-n", "5", "-retries", "-1"}, {"-n", "5", "-retries", "-1", "-connect", fleet}},
			wantErr:  "-retries",
		},
		{
			name:     "rejects-negative-k",
			rejected: [][]string{{"-protocol", "oracle-diam3", "-decide", "-n", "5", "-k", "-1"}, {"-n", "5", "-k", "-1", "-connect", fleet}},
			wantErr:  "-k",
		},
		{name: "in-process-manifest-resume", run: testInProcessResume},
		{name: "n9-window-parallel4", run: testN9Window},
		{name: "worker-killed", run: func(t *testing.T) { testWorkerKilled(t, a.addr) }},
		{name: "coordinator-stopped", run: func(t *testing.T) { testCoordinatorStopped(t, sp, fleet) }},
		{name: "service", run: testService},
		{name: "chaos-drain", run: func(t *testing.T) { testChaosDrain(t, sp) }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.run != nil {
				tc.run(t)
				return
			}
			for _, args := range tc.rejected {
				_, _, err := sweepCmd(args...)
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("sweep %v: error %v, want one naming %s", args, err, tc.wantErr)
				}
			}
			size := n
			if tc.n != "" {
				size = tc.n
			}
			var first string
			for i, args := range tc.sweeps {
				line, _ := mustSweep(t, slices.Concat(args, []string{"-n", size, "-units", "16", "-connect", fleet})...)
				if i == 0 {
					first = line
					checkTotals(t, line, tc.want)
				} else if line != first {
					t.Errorf("stats differ:\n%v: %s\n%v: %s", tc.sweeps[0], first, args, line)
				}
			}
		})
	}
}

// A 2-slot in-process sweep of all n = 6 graphs merges to the exact counts,
// and a rerun against its completed manifest restores every unit instead of
// recomputing, to an identical stats line.
func testInProcessResume(t *testing.T) {
	args := []string{"-protocol", "oracle-conn", "-decide", "-n", "6", "-workers", "2",
		"-manifest", filepath.Join(t.TempDir(), "n6.manifest")}
	first, _ := mustSweep(t, args...)
	checkTotals(t, first, totals{n6.graphs, n6.connected})
	again, log := mustSweep(t, append(args, "-v")...)
	if !strings.Contains(log, "8 restored from manifest") {
		t.Errorf("rerun did not restore all 8 units:\n%s", log)
	}
	if again != first {
		t.Errorf("resumed stats differ:\nfirst:   %s\nresumed: %s", first, again)
	}
}

// The 36-bit path end to end (ParseRankRange → SplitGrayRanks → plan JSON →
// TCP → executor split → GraySource): an n = 9 window starting at 2^35,
// where 32-bit rank arithmetic would have wrapped, swept through one
// -parallel 4 daemon equals a direct single-process CountRange.
func testN9Window(t *testing.T) {
	d := serve(t, "-parallel", "4")
	lo := uint64(1) << 35
	hi := lo + 1<<21
	ref, err := collide.CountRange(9, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if ref.All != 2097152 || ref.Connected != 1376438 {
		t.Fatalf("CountRange reference graphs=%d connected=%d, want 2097152 and 1376438", ref.All, ref.Connected)
	}
	line, _ := mustSweep(t, "-protocol", "oracle-conn", "-decide", "-n", "9",
		"-ranks", fmt.Sprintf("%d:%d", lo, hi), "-units", "8", "-connect", d.addr)
	checkTotals(t, line, totals{ref.All, ref.Connected})
}

// A worker killed mid-sweep loses the unit it was answering; the coordinator
// retries it on the surviving daemon and the totals stay exact. It stays at
// n = 7 under -short: its units must outlast the victim's handshake, or the
// survivor could finish the whole plan before the victim gets a unit.
func testWorkerKilled(t *testing.T, survivor string) {
	victim := killableWorker(t, 2)
	line, log := mustSweep(t, "-protocol", "oracle-conn", "-decide", "-n", "7",
		"-units", "64", "-connect", survivor+";"+victim.addr, "-v")
	if !victim.killed.Load() {
		t.Fatal("sweep finished before the worker was killed")
	}
	checkTotals(t, line, totals{n7.graphs, n7.connected})
	if !strings.Contains(log, "retrying unit") {
		t.Errorf("worker kill produced no retry:\n%s", log)
	}
}

// A coordinator stopped mid-sweep leaves a manifest of the units it merged;
// rerunning the same invocation restores them and completes to the exact
// totals.
func testCoordinatorStopped(t *testing.T, sp space, fleet string) {
	const k = 5
	args := []string{"-protocol", "oracle-conn", "-decide", "-n", strconv.Itoa(sp.n), "-units", "64", "-connect", fleet}
	var plan engine.Plan
	if err := json.Unmarshal([]byte(dumpPlan(t, args...)), &plan); err != nil {
		t.Fatal(err)
	}
	addrs, err := sweep.ParseAddrs(fleet)
	if err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(t.TempDir(), "stopped.manifest")
	dying := &dyingTransport{Transport: &sweep.TCP{Addrs: addrs}}
	dying.left.Store(k)
	if _, err := sweep.Run(plan, sweep.Options{Workers: 2, Transport: dying, Manifest: manifest}); err == nil {
		t.Fatal("the stopped coordinator completed its sweep")
	}
	line, log := mustSweep(t, append(args, "-manifest", manifest, "-v")...)
	checkTotals(t, line, totals{sp.graphs, sp.connected})
	if want := fmt.Sprintf("%d restored from manifest", k); !strings.Contains(log, want) {
		t.Errorf("rerun log lacks %q:\n%s", want, log)
	}
}

// Sweep-as-a-service through `serve -http`: the first POST of a -dump-plan
// plan executes, a repeat is answered from the fingerprint cache with
// byte-identical stats and no second execution, a concurrent replay of a
// fresh plan is mostly cache hits, and cancelling the daemon drains both the
// TCP and the HTTP surface.
func testService(t *testing.T) {
	d := serve(t, "-http", "127.0.0.1:0", "-parallel", "2")
	base := "http://" + d.http
	plan := dumpPlan(t, "-protocol", "oracle-conn", "-decide", "-n", "6", "-units", "4")

	code, first := postJob(t, base, plan)
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202: %s", code, first)
	}
	done := waitJob(t, base, jobView(t, first).ID)
	stats := rawStats(t, done)
	var st engine.BatchStats
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatal(err)
	}
	if st.Graphs != n6.graphs || st.Accepted != n6.connected {
		t.Errorf("job stats graphs=%d accepted=%d, want %d and %d", st.Graphs, st.Accepted, n6.graphs, n6.connected)
	}

	code, repeat := postJob(t, base, plan)
	if code != http.StatusOK || !jobView(t, repeat).Cached {
		t.Fatalf("repeat POST = %d, want 200 with \"cached\":true: %s", code, repeat)
	}
	if got := rawStats(t, repeat); got != stats {
		t.Errorf("cached stats differ:\nfirst:  %s\ncached: %s", stats, got)
	}
	if got := metric(t, base, "refereeservice_executions_total"); got != 1 {
		t.Errorf("executions_total = %v, want exactly 1", got)
	}
	if got := metric(t, base, "refereeservice_cache_hits_total"); got < 1 {
		t.Errorf("cache_hits_total = %v, want ≥ 1", got)
	}

	// 20 POSTs of a plan the daemon has not seen, from 4 concurrent
	// clients: one executes, the others join it or hit the cache, and
	// every answer matches an in-process run of the plan.
	fresh := dumpPlan(t, "-protocol", "hash16", "-n", "6", "-units", "4")
	var freshPlan engine.Plan
	if err := json.Unmarshal([]byte(fresh), &freshPlan); err != nil {
		t.Fatal(err)
	}
	ref, err := sweep.Run(freshPlan, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const clients, requests = 4, 20
	var hits, failed atomic.Int64
	var wg sync.WaitGroup
	next := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range next {
				cached, err := replay(base, fresh, ref.Stats)
				switch {
				case err != nil:
					failed.Add(1)
					t.Error(err)
				case cached:
					hits.Add(1)
				}
			}
		}()
	}
	for i := 0; i < requests; i++ {
		next <- struct{}{}
	}
	close(next)
	wg.Wait()
	if f := failed.Load(); f != 0 {
		t.Errorf("%d of %d replayed requests failed", f, requests)
	}
	if h := hits.Load(); 100*h < 50*requests {
		t.Errorf("replay hit rate %d/%d, want ≥ 50%%", h, requests)
	}

	// Hang up idle keep-alive connections, as an exited client would:
	// http.Server.Shutdown waits up to 5 s on a connection the client pool
	// dialed but never sent a request on.
	http.DefaultClient.CloseIdleConnections()
	if err := d.drain(t); err != nil {
		t.Errorf("drained service returned %v", err)
	}
	if out := d.stdout.String(); !strings.Contains(out, "drained cleanly") {
		t.Errorf("service did not report a clean drain:\n%s", out)
	}
}

// The chaos plane end to end: seeded connection drops, hangs (reclaimed by
// -unit-timeout and raced by -hedge) and corrupted result frames over two
// daemons, one of which is drained mid-sweep — at the coordinator's first
// retry, so units are provably still outstanding. Faults may cost retries,
// never correctness.
func testChaosDrain(t *testing.T, sp space) {
	keep := serve(t, "-parallel", "2", "-v")
	drained := serve(t, "-parallel", "2", "-v")
	var out, log bytes.Buffer
	var drainedMidSweep atomic.Bool
	hook := &onMatch{w: &log, match: "retrying unit", fn: func() {
		drainedMidSweep.Store(true)
		drained.stop()
	}}
	err := runSweep(context.Background(), []string{
		"-protocol", "oracle-conn", "-decide", "-n", strconv.Itoa(sp.n), "-units", "64", "-retries", "12",
		"-connect", keep.addr + ";" + drained.addr, "-unit-timeout", "200ms", "-hedge", "50ms",
		"-chaos", "seed=7,drop=0.08,hang=0.05,corrupt=0.02,hangfor=500ms", "-v",
	}, &out, hook)
	if err != nil {
		t.Fatalf("chaos sweep: %v\n%s", err, log.String())
	}
	checkTotals(t, statsLine(t, out.String()), totals{sp.graphs, sp.connected})
	if !strings.Contains(log.String(), "chaos: injected") {
		t.Errorf("no chaos fault ever fired:\n%s", log.String())
	}
	if !drainedMidSweep.Load() {
		t.Fatalf("faults produced no retries, so no mid-sweep drain:\n%s", log.String())
	}
	if !regexp.MustCompile(`(?m)^robustness: `).MatchString(out.String()) {
		t.Errorf("robustness counters line missing:\n%s", out.String())
	}
	if err := drained.drain(t); err != nil {
		t.Errorf("drained daemon returned %v", err)
	}
	if !strings.Contains(drained.stdout.String(), "drained cleanly") {
		t.Errorf("daemon did not report a clean drain:\n%s", drained.stdout.String())
	}
	for _, want := range []string{"serve: drain: stopped accepting", "serve: drained: "} {
		if !strings.Contains(drained.stderr.String(), want) {
			t.Errorf("daemon log lacks %q:\n%s", want, drained.stderr.String())
		}
	}
}

// --- sweep helpers --------------------------------------------------------

// sweepCmd runs `refereesim sweep args...` in-process.
func sweepCmd(args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = runSweep(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

// mustSweep runs a sweep that must succeed and returns its stats line and
// its stderr log.
func mustSweep(t *testing.T, args ...string) (line, log string) {
	t.Helper()
	out, log, err := sweepCmd(args...)
	if err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, log)
	}
	return statsLine(t, out), log
}

// dumpPlan returns the plan JSON `sweep -dump-plan` prints for args.
func dumpPlan(t *testing.T, args ...string) string {
	t.Helper()
	out, log, err := sweepCmd(append(args, "-dump-plan")...)
	if err != nil {
		t.Fatalf("sweep -dump-plan %v: %v\n%s", args, err, log)
	}
	return out
}

// statsLine picks the `graphs=... accepted=...` line out of a sweep report.
func statsLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "graphs=") {
			return line
		}
	}
	t.Fatalf("no stats line in sweep output:\n%s", out)
	return ""
}

// checkTotals compares a stats line's graphs= and accepted= fields to want.
func checkTotals(t *testing.T, line string, want totals) {
	t.Helper()
	field := func(key string) uint64 {
		m := regexp.MustCompile(`\b` + key + `=(\d+)`).FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("no %s= in %q", key, line)
		}
		v, _ := strconv.ParseUint(m[1], 10, 64)
		return v
	}
	if g, a := field("graphs"), field("accepted"); g != want.graphs || a != want.accepted {
		t.Errorf("graphs=%d accepted=%d, want graphs=%d accepted=%d (%s)", g, a, want.graphs, want.accepted, line)
	}
}

// dyingTransport carries its first left round-trips through the wrapped
// transport and fails every later one, as a coordinator process killed at
// that point would: the manifest keeps exactly the units merged before.
type dyingTransport struct {
	sweep.Transport
	left atomic.Int64
}

func (d *dyingTransport) Dial() (sweep.Conn, error) {
	c, err := d.Transport.Dial()
	if err != nil {
		return nil, err
	}
	return dyingConn{c, d}, nil
}

type dyingConn struct {
	sweep.Conn
	d *dyingTransport
}

func (c dyingConn) RoundTrip(u sweep.Unit) (sweep.Result, error) {
	if c.d.left.Add(-1) < 0 {
		return sweep.Result{}, errors.New("coordinator killed")
	}
	return c.Conn.RoundTrip(u)
}

// onMatch forwards writes to w and calls fn, once, from inside the first
// write containing match — while the writer (the coordinator's accounting
// loop) waits on it.
type onMatch struct {
	w     io.Writer
	match string
	fn    func()
	once  sync.Once
}

func (o *onMatch) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(o.match)) {
		o.once.Do(o.fn)
	}
	return o.w.Write(p)
}

// --- daemon helpers -------------------------------------------------------

// syncBuffer is a bytes.Buffer safe to read while a daemon writes to it.
// Each write also ticks wrote, when non-nil, for a reader waiting on output.
type syncBuffer struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{} // capacity 1: a pending tick already says "look again"
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case b.wrote <- struct{}{}:
	default:
	}
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is an in-process `refereesim serve` on loopback.
type daemon struct {
	addr, http     string // TCP unit surface; HTTP job API when started with -http
	stdout, stderr *syncBuffer
	stop           context.CancelFunc // the SIGTERM stand-in
	exited         chan struct{}
	err            error // runServe's return, valid once exited is closed
}

// serve starts runServe with args on a free loopback port and waits until
// it reports its addresses. Cleanup drains it.
func serve(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		stdout: &syncBuffer{wrote: make(chan struct{}, 1)},
		stderr: &syncBuffer{},
		stop:   cancel,
		exited: make(chan struct{}),
	}
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	go func() {
		d.err = runServe(ctx, args, d.stdout, d.stderr)
		close(d.exited)
	}()
	t.Cleanup(func() { d.drain(t) })
	wantHTTP := false
	for _, a := range args {
		wantHTTP = wantHTTP || a == "-http"
	}
	timeout := time.After(10 * time.Second)
	for {
		for _, line := range strings.Split(d.stdout.String(), "\n") {
			f := strings.Fields(line)
			switch {
			case len(f) > 1 && f[0] == "listening":
				d.addr = f[1]
			case len(f) > 2 && f[0] == "http" && f[1] == "listening":
				d.http = f[2]
			}
		}
		if d.addr != "" && (d.http != "" || !wantHTTP) {
			return d
		}
		select {
		case <-d.stdout.wrote:
		case <-d.exited:
			t.Fatalf("serve %v exited before listening: %v\n%s", args, d.err, d.stderr.String())
		case <-timeout:
			t.Fatalf("serve %v never reported its address", args)
		}
	}
}

// drain cancels the daemon's context and waits for runServe to return.
func (d *daemon) drain(t *testing.T) error {
	t.Helper()
	d.stop()
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain")
		return nil
	}
}

// killableWorker starts a sweep.Serve worker on loopback that is killed -9
// style while answering its k-th unit: the listener and every connection it
// accepted are hard-closed, so that unit's result never arrives.
func killableWorker(t *testing.T, k int64) *killListener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kl := &killListener{Listener: l, addr: l.Addr().String(), after: k}
	pool := sweep.NewExecutor(1)
	done := make(chan error, 1)
	go func() { done <- sweep.Serve(kl, sweep.ServeOptions{Executor: pool}) }()
	t.Cleanup(func() {
		kl.kill()
		<-done
		pool.Close()
	})
	return kl
}

type killListener struct {
	net.Listener
	addr    string
	after   int64
	results atomic.Int64
	killed  atomic.Bool
	mu      sync.Mutex
	conns   []net.Conn
}

func (l *killListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.killed.Load() {
		c.Close() // accepted while kill ran
		return nil, net.ErrClosed
	}
	l.conns = append(l.conns, c)
	return killConn{c, l}, nil
}

// kill hard-closes the listener and every accepted connection.
func (l *killListener) kill() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.killed.Store(true)
	l.Listener.Close()
	for _, c := range l.conns {
		c.Close()
	}
}

// killConn counts result frames (the only frames a worker writes that start
// with the unit ID) and kills its listener instead of writing the k-th.
type killConn struct {
	net.Conn
	l *killListener
}

func (c killConn) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(`{"id":`)) && c.l.results.Add(1) == c.l.after {
		c.l.kill()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// --- HTTP helpers ---------------------------------------------------------

func postJob(t *testing.T, base, plan string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

type view struct {
	ID     string             `json:"id"`
	Status string             `json:"status"`
	Error  string             `json:"error"`
	Cached bool               `json:"cached"`
	Stats  *engine.BatchStats `json:"stats"`
}

func jobView(t *testing.T, body []byte) view {
	t.Helper()
	var v view
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad job response %s: %v", body, err)
	}
	return v
}

// getJob fetches one job snapshot.
func getJob(base, id string) ([]byte, view, error) {
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		return nil, view{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, view{}, err
	}
	var v view
	err = json.Unmarshal(body, &v)
	return body, v, err
}

// waitJob polls a job to a terminal status and returns its done snapshot.
func waitJob(t *testing.T, base, id string) []byte {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		body, v, err := getJob(base, id)
		if err != nil {
			t.Fatal(err)
		}
		switch v.Status {
		case "done":
			return body
		case "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// replay submits plan and follows it to a done answer carrying want,
// reporting whether the POST was answered from the cache.
func replay(base, plan string, want engine.BatchStats) (cached bool, err error) {
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(plan))
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return false, fmt.Errorf("POST /jobs = %d: %s", resp.StatusCode, body)
	}
	var v view
	if err := json.Unmarshal(body, &v); err != nil {
		return false, err
	}
	cached = v.Cached // describes the POST; polling overwrites v
	for deadline := time.Now().Add(30 * time.Second); v.Status != "done"; time.Sleep(5 * time.Millisecond) {
		if v.Status == "failed" || time.Now().After(deadline) {
			return false, fmt.Errorf("job %s ended %q: %s", v.ID, v.Status, v.Error)
		}
		if _, v, err = getJob(base, v.ID); err != nil {
			return false, err
		}
	}
	if v.Stats == nil || *v.Stats != want {
		return false, fmt.Errorf("job %s answered %+v, want %+v", v.ID, v.Stats, want)
	}
	return cached, nil
}

// rawStats extracts the bytes of a job response's "stats" object — the unit
// of the byte-identical cache guarantee.
func rawStats(t *testing.T, body []byte) string {
	t.Helper()
	var probe struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || len(probe.Stats) == 0 {
		t.Fatalf("no stats in %s (%v)", body, err)
	}
	return string(probe.Stats)
}

// metric reads one unlabelled sample from GET /metrics.
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in /metrics:\n%s", name, raw)
	return 0
}
