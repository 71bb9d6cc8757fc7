package sweep

import (
	"net"
	"strings"
	"sync"
	"testing"

	"refereenet/internal/engine"
	"refereenet/internal/graph"
)

// The "panicky" kind resolves fine and then panics mid-stream — and it
// registers a splitter, so its panic fires on the Executor's pool workers,
// exercising the recovery path the shared pool must have (a poisoned unit in
// one connection must not kill the goroutines every connection shares).
type panickySource struct{}

func (panickySource) Next() *graph.Graph { panic("injected poison") }

func init() {
	engine.RegisterSource("panicky", func(engine.SourceSpec) (engine.Source, error) {
		return panickySource{}, nil
	})
	engine.RegisterSourceSplitter("panicky", func(spec engine.SourceSpec, parts int) ([]engine.SourceSpec, bool) {
		return engine.SplitSourceRange(spec, spec.Lo, spec.Hi, parts)
	})
}

// The shared pool's headline: a unit executed over the pool must produce
// stats byte-identical to the nil executor's direct call on the calling
// goroutine, for splittable and unsplittable sources alike, at any pool
// size.
func TestExecutorMatchesSingleThreaded(t *testing.T) {
	var direct *Executor
	if w := direct.Workers(); w != 1 {
		t.Errorf("nil executor reports %d workers, want 1", w)
	}
	units := []Unit{
		{ID: 0, Spec: engine.ShardSpec{
			Protocol: "hash16",
			Source:   engine.SourceSpec{Kind: "gray", N: 6, Lo: 0, Hi: 1 << 15},
		}},
		{ID: 1, Spec: engine.ShardSpec{
			Protocol: "oracle-conn",
			Decide:   true,
			Source:   engine.SourceSpec{Kind: "gray", N: 5, Lo: 100, Hi: 900},
		}},
		// A seeded family stream cannot split (per-shard seeds would change
		// the stats); it must still execute correctly through the pool.
		{ID: 2, Spec: engine.ShardSpec{
			Protocol: "forest",
			Source:   engine.SourceSpec{Kind: "family", Family: "tree", N: 25, Seed: 5, Count: 30},
		}},
	}
	for _, u := range units {
		want := direct.Execute(u)
		if want.Err != "" {
			t.Fatalf("unit %d: single-threaded reference failed: %s", u.ID, want.Err)
		}
		for _, workers := range []int{1, 2, 4, 16} {
			pool := NewExecutor(workers)
			got := pool.Execute(u)
			pool.Close()
			if got != want {
				t.Errorf("unit %d over %d workers: %+v, want %+v", u.ID, workers, got, want)
			}
		}
	}
}

// Many connections draining through ONE shared pool — the deployment shape
// `serve -parallel` exists for. Every concurrent Execute must come back
// correct, and results must not bleed across units.
func TestExecutorSharedAcrossConnections(t *testing.T) {
	pool := NewExecutor(4)
	defer pool.Close()

	const conns = 8
	units := make([]Unit, conns)
	wants := make([]Result, conns)
	total := uint64(1) << 15
	for i := range units {
		lo := total / conns * uint64(i)
		hi := total / conns * uint64(i+1)
		units[i] = Unit{ID: i, Spec: engine.ShardSpec{
			Protocol: "hash16",
			Source:   engine.SourceSpec{Kind: "gray", N: 6, Lo: lo, Hi: hi},
		}}
		wants[i] = executeUnit(units[i])
	}

	got := make([]Result, conns)
	var wg sync.WaitGroup
	for i := range units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = pool.Execute(units[i])
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != wants[i] {
			t.Errorf("connection %d: %+v, want %+v", i, got[i], wants[i])
		}
	}
}

// A bad rank from the wire — n past the ceiling, an inverted range, a range
// past the 36-bit space — must come back as Result.Err from the pool, never
// as a panic: a stale coordinator cannot crash a serve -parallel daemon.
func TestExecutorBadUnitErrorsNotPanics(t *testing.T) {
	pool := NewExecutor(4)
	defer pool.Close()
	for _, bad := range []engine.SourceSpec{
		{Kind: "gray", N: 12, Lo: 0, Hi: 100},               // n past the ceiling
		{Kind: "gray", N: 9, Lo: 50, Hi: 40},                // inverted
		{Kind: "gray", N: 9, Lo: 0, Hi: 1<<36 + 1},          // past the space
		{Kind: "gray", N: 9, Lo: 1 << 36, Hi: 1<<36 + 4096}, // fully out of bounds
		{Kind: "no-such-kind"},
	} {
		res := pool.Execute(Unit{ID: 7, Spec: engine.ShardSpec{Protocol: "hash16", Source: bad}})
		if res.ID != 7 {
			t.Errorf("spec %+v: result carries id %d, want 7", bad, res.ID)
		}
		if res.Err == "" {
			t.Errorf("spec %+v executed without error", bad)
		}
		if res.Stats != (engine.BatchStats{}) {
			t.Errorf("spec %+v: failed unit carries stats %+v", bad, res.Stats)
		}
	}
	// The pool survives poisoned units: a good unit still executes.
	good := Unit{ID: 8, Spec: engine.ShardSpec{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "gray", N: 4, Lo: 0, Hi: 64},
	}}
	if res := pool.Execute(good); res.Err != "" || res.Stats.Graphs != 64 {
		t.Errorf("good unit after poisoned ones: %+v", res)
	}
}

// End to end through the TCP daemon: Serve over a caller's pool must hand
// coordinators totals identical to a single-threaded sweep of the same plan.
func TestServeParallelMatchesSweep(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewExecutor(4)
	defer pool.Close()
	done := make(chan error, 1)
	go func() { done <- Serve(l, ServeOptions{Executor: pool}) }()

	plan := grayPlan(t, "oracle-conn", 6, 8, true)
	want, err := Run(plan, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(plan, Options{Dial: []string{l.Addr().String()}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Errorf("serve -parallel sweep stats %+v, want %+v", got.Stats, want.Stats)
	}

	l.Close()
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v on a closed listener", err)
	}
}

// A unit that panics mid-execution inside the pool must fail that unit only:
// the pool worker survives, the error is in-band, and partial stats from the
// surviving sub-shards never leak into the result.
func TestExecutorRecoversPanickingUnit(t *testing.T) {
	pool := NewExecutor(2)
	defer pool.Close()
	res := pool.Execute(Unit{ID: 3, Spec: engine.ShardSpec{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "panicky", N: 5, Lo: 0, Hi: 1 << 10},
	}})
	if res.Err == "" || !strings.Contains(res.Err, "panicked") {
		t.Fatalf("panicking unit produced %+v, want an in-band panic error", res)
	}
	if res.Stats != (engine.BatchStats{}) {
		t.Errorf("panicking unit leaked partial stats %+v", res.Stats)
	}
	// The pool still works.
	ok := pool.Execute(Unit{ID: 4, Spec: engine.ShardSpec{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "gray", N: 4, Lo: 0, Hi: 64},
	}})
	if ok.Err != "" || ok.Stats.Graphs != 64 {
		t.Errorf("good unit after a panic: %+v", ok)
	}
}

// Close racing Execute — a coordinator's last round-trip landing while the
// daemon releases the pool, or a job-service runner racing service
// shutdown — must yield an error Result for the unit, never a
// send-on-closed-channel panic. Run under -race this also checks the
// lifetime signalling itself.
func TestExecutorCloseVsExecuteRace(t *testing.T) {
	unit := func(id int) Unit {
		return Unit{ID: id, Spec: engine.ShardSpec{
			Protocol: "hash16",
			Source:   engine.SourceSpec{Kind: "gray", N: 5, Lo: 0, Hi: 1 << 10},
		}}
	}
	want := executeUnit(unit(0)).Stats
	for trial := 0; trial < 25; trial++ {
		pool := NewExecutor(2)
		const execs = 4
		results := make([]Result, execs)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < execs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				results[i] = pool.Execute(unit(i))
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			pool.Close()
		}()
		close(start)
		wg.Wait()
		for i, res := range results {
			switch {
			case res.Err == "":
				if res.Stats != want {
					t.Fatalf("trial %d: unit %d executed with wrong stats %+v, want %+v", trial, i, res.Stats, want)
				}
			case strings.Contains(res.Err, "executor closed"):
				if res.Stats != (engine.BatchStats{}) {
					t.Fatalf("trial %d: closed-pool unit %d leaked stats %+v", trial, i, res.Stats)
				}
			default:
				t.Fatalf("trial %d: unit %d unexpected error %q", trial, i, res.Err)
			}
		}
	}
}

// Execute entirely after Close is the same contract, without the race: an
// error Result naming the closed pool.
func TestExecutorExecuteAfterClose(t *testing.T) {
	pool := NewExecutor(2)
	pool.Close()
	pool.Close() // idempotent
	res := pool.Execute(Unit{ID: 9, Spec: engine.ShardSpec{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "gray", N: 4, Lo: 0, Hi: 64},
	}})
	if res.ID != 9 || !strings.Contains(res.Err, "executor closed") {
		t.Fatalf("Execute after Close returned %+v, want an executor-closed error for unit 9", res)
	}
}
