package sweep

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"refereenet/internal/collide"
	"refereenet/internal/engine"
)

func init() {
	// "slow-gray" resolves like gray after sleeping Source.Seed milliseconds —
	// the knob that keeps units in flight long enough for drain tests to
	// catch a daemon mid-unit.
	engine.RegisterSource("slow-gray", func(spec engine.SourceSpec) (engine.Source, error) {
		time.Sleep(time.Duration(spec.Seed) * time.Millisecond)
		return collide.GraySourceForRange(spec.N, spec.Lo, spec.Hi)
	})
}

// syncBuffer guards a bytes.Buffer: Serve's logger runs on its own goroutines
// while the test reads the output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// drainDaemon starts a Serve daemon over a workers-sized pool the test owns,
// armed with a cancellable drain context, and returns its address, cancel
// func, log buffer, and exit channel.
func drainDaemon(t *testing.T, workers int) (string, context.CancelFunc, *syncBuffer, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewExecutor(workers)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); l.Close(); pool.Close() })
	logw := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- Serve(l, ServeOptions{Log: logw, Executor: pool, Context: ctx})
	}()
	return l.Addr().String(), cancel, logw, done
}

// Cancelling an idle daemon's context is a clean exit: Serve returns nil and
// logs the drain summary.
func TestServeDrainIdle(t *testing.T) {
	_, cancel, logw, done := drainDaemon(t, 2)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
	if out := logw.String(); !strings.Contains(out, "drained") {
		t.Errorf("drain summary missing from log:\n%s", out)
	}
}

// The SIGTERM story end to end, minus the signal: one daemon of a two-daemon
// fleet is drained mid-sweep. Its in-flight unit finishes and flushes, the
// coordinator fails the dropped stream over to the surviving daemon, and the
// merged totals stay byte-identical to the monolithic run.
func TestServeDrainMidSweepFailsOver(t *testing.T) {
	const n, units = 5, 10
	want := monolithic(t, "hash16", n, false)
	drainAddr, cancel, logw, done := drainDaemon(t, 1)
	survivor := startDaemon(t)

	plan := grayPlan(t, "hash16", n, units, false)
	for i := range plan.Shards {
		plan.Shards[i].Source.Kind = "slow-gray"
		plan.Shards[i].Source.Seed = 40 // ms per unit: keeps units in flight at drain time
	}

	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	rep, err := Run(plan, Options{
		Dial:    []string{drainAddr, survivor},
		Workers: 2,
		Retries: units,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != want {
		t.Errorf("drained-fleet sweep stats %+v, want %+v", rep.Stats, want)
	}
	select {
	case serr := <-done:
		if serr != nil {
			t.Errorf("drained Serve returned %v", serr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained daemon did not exit")
	}
	out := logw.String()
	if !strings.Contains(out, "drain") {
		t.Errorf("drain never logged:\n%s", out)
	}
}

// The serve-drain deadline race: a connection whose handshake completes
// concurrently with cancellation must not clear the drain sweep's
// SetReadDeadline(now) poke — with the poke erased, the connection's first
// unit read blocks forever and Serve never returns. The test hook holds the
// connection goroutine in exactly the window between a successful handshake
// and the deadline reset while the drain fires, then releases it and
// demands that Serve still returns.
func TestServeDrainRacesHandshakeCompletion(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	testHookPostHandshake = func() {
		close(entered)
		<-release
	}
	defer func() { testHookPostHandshake = nil }()

	addr, cancel, logw, done := drainDaemon(t, 1)
	tr := &TCP{Addrs: []string{addr}}
	conn, err := tr.Dial() // completes the client half of the handshake
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The server side finished its handshake and is parked in the hook.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("server never reached the post-handshake window")
	}
	cancel()
	// Wait for the drain goroutine's deadline sweep: it logs before poking
	// the live connections, so once the line appears the pokes are at most
	// microseconds away — the grace sleep makes them certain.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logw.String(), "drain:") {
		if time.Now().After(deadline) {
			t.Fatal("drain sweep never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(release)

	// The fixed daemon re-checks draining under liveMu instead of clearing
	// the poked deadline, so the connection's first read fails immediately
	// and the drain completes. The broken daemon hangs in conns.Wait().
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve hung: handshake completion cleared the drain's deadline poke")
	}
	if _, err := conn.RoundTrip(Unit{ID: 1}); err == nil {
		t.Error("round-trip on a drained connection succeeded")
	}
}

// A drain must wait for the unit executing at cancel time: the worker
// finishes it, flushes the result, and only then hangs up — the coordinator
// keeps that result and re-runs nothing it already has.
func TestServeDrainFlushesInFlightUnit(t *testing.T) {
	addr, cancel, logw, done := drainDaemon(t, 2)
	tr := &TCP{Addrs: []string{addr}}
	conn, err := tr.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	unit := Unit{ID: 3, Spec: engine.ShardSpec{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "slow-gray", N: 5, Lo: 0, Hi: 1 << 10, Seed: 300},
	}}
	// Cancel while the unit is mid-execution; its result must still arrive.
	resc := make(chan Result, 1)
	errc := make(chan error, 1)
	go func() {
		res, rerr := conn.RoundTrip(unit)
		if rerr != nil {
			errc <- rerr
			return
		}
		resc <- res
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case res := <-resc:
		if res.Err != "" || res.Stats.Graphs != 1<<10 {
			t.Errorf("in-flight unit under drain returned %+v", res)
		}
	case rerr := <-errc:
		t.Fatalf("in-flight unit dropped by drain: %v", rerr)
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight unit never completed")
	}
	select {
	case serr := <-done:
		if serr != nil {
			t.Errorf("drained Serve returned %v", serr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after flushing the in-flight unit")
	}
	out := logw.String()
	if !strings.Contains(out, "1 in-flight units completed") {
		t.Errorf("drain summary does not count the flushed unit:\n%s", out)
	}
	// The drained connection is closed — further round-trips must fail
	// rather than hang.
	if _, err := conn.RoundTrip(unit); err == nil {
		t.Error("round-trip on a drained connection succeeded")
	}
}

// A drain hands the pool back to its owner: after Serve returns the caller's
// executor still runs units, so a process sharing it with the job service
// can finish that surface's jobs before closing it.
func TestServeDrainLeavesCallerPoolOpen(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewExecutor(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(l, ServeOptions{Executor: pool, Context: ctx}) }()
	plan := grayPlan(t, "hash16", 5, 4, false)
	if _, err := Run(plan, Options{Dial: []string{l.Addr().String()}}); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
	res := pool.Execute(Unit{ID: 2, Spec: plan.Shards[0]})
	if res.Err != "" || res.Stats.Graphs == 0 {
		t.Errorf("caller's pool after drain: %+v, want a clean execution", res)
	}
}
