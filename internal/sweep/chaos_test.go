package sweep

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The acceptance bar for the whole chaos plane: a sweep through a seeded
// ChaosTransport injecting every fault class — resets, lost results, hangs,
// delays, corrupted frames, dial failures — must merge to BatchStats
// byte-identical to the fault-free single-process run.
func TestChaosSoakMatchesMonolithic(t *testing.T) {
	const n = 6
	want := monolithic(t, "hash16", n, false)
	plan := grayPlan(t, "hash16", n, 16, false)
	rep, err := Run(plan, Options{
		Workers: 4,
		Retries: 50,
		Chaos: &ChaosOptions{
			Seed:     42,
			Drop:     0.10,
			Lose:     0.05,
			Hang:     0.03,
			Delay:    0.10,
			Corrupt:  0.05,
			HangFor:  20 * time.Millisecond,
			DelayFor: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != want {
		t.Errorf("chaos soak stats %+v, want %+v", rep.Stats, want)
	}
	if rep.Retries == 0 || rep.Requeues == 0 {
		t.Errorf("chaos soak report %+v: the fault schedule injected nothing", rep)
	}
}

// The fault schedule is a pure function of (seed, unit, attempt): two soaks
// with the same seed fire the identical fault counts no matter how the worker
// goroutines interleave, and the sweep still merges exactly.
func TestChaosScheduleIsDeterministic(t *testing.T) {
	const n = 5
	want := monolithic(t, "degree", n, false)
	soak := func() ChaosCounts {
		t.Helper()
		tr := NewChaosTransport(InProcess{}, ChaosOptions{
			Seed:     7,
			Drop:     0.15,
			Lose:     0.10,
			Corrupt:  0.10,
			Delay:    0.15,
			DelayFor: time.Millisecond,
		})
		plan := grayPlan(t, "degree", n, 8, false)
		rep, err := Run(plan, Options{Workers: 3, Retries: 50, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != want {
			t.Fatalf("chaos sweep stats %+v, want %+v", rep.Stats, want)
		}
		return tr.Counts()
	}
	a, b := soak(), soak()
	if a != b {
		t.Errorf("same seed, different fault schedules: %+v vs %+v", a, b)
	}
	if a.Total() == 0 {
		t.Error("fault schedule fired nothing at these rates")
	}
}

// Duplicate result delivery — hedge losers racing hedge winners, duplicate
// executions after lost results — must never double-merge a unit, whatever
// the seed. The exact-integer stats make any double merge loud.
func TestChaosDuplicatesNeverDoubleMerge(t *testing.T) {
	const n = 4
	want := monolithic(t, "degree", n, false)
	for seed := int64(1); seed <= 5; seed++ {
		plan := grayPlan(t, "degree", n, 8, false)
		rep, err := Run(plan, Options{
			Workers: 3,
			Retries: 50,
			Hedge:   5 * time.Millisecond,
			Chaos: &ChaosOptions{
				Seed:     seed,
				Drop:     0.15,
				Lose:     0.20,
				Delay:    0.25,
				DelayFor: 40 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Stats != want {
			t.Errorf("seed %d: stats %+v, want %+v (duplicates=%d hedges=%d)",
				seed, rep.Stats, want, rep.Duplicates, rep.Hedges)
		}
	}
}

// slowUnitTransport stalls the first round-trip of one target unit, leaving
// everything else at full speed — the deterministic straggler for hedge and
// deadline tests.
type slowUnitTransport struct {
	target int
	delay  time.Duration
	fired  atomic.Bool
}

func (s *slowUnitTransport) Name() string { return "slow-unit" }

func (s *slowUnitTransport) Dial() (Conn, error) {
	return &slowUnitConn{inner: InProcess{}, t: s}, nil
}

type slowUnitConn struct {
	inner Conn
	t     *slowUnitTransport
}

func (c *slowUnitConn) RoundTrip(u Unit) (Result, error) {
	if u.ID == c.t.target && c.t.fired.CompareAndSwap(false, true) {
		time.Sleep(c.t.delay)
	}
	return c.inner.RoundTrip(u)
}

func (c *slowUnitConn) Close() error { return c.inner.Close() }

// A straggling unit is reclaimed by hedged dispatch: the speculative twin
// finishes first, its result wins, and the original's late result is
// discarded by ID instead of double-merging.
func TestHedgeReclaimsStraggler(t *testing.T) {
	const n = 5
	want := monolithic(t, "hash16", n, false)
	tr := &slowUnitTransport{target: 0, delay: 800 * time.Millisecond}
	plan := grayPlan(t, "hash16", n, 6, false)
	rep, err := Run(plan, Options{
		Workers:   2,
		Transport: tr,
		Hedge:     30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != want {
		t.Errorf("hedged sweep stats %+v, want %+v", rep.Stats, want)
	}
	if rep.Hedges == 0 || rep.HedgeWins == 0 {
		t.Errorf("report %+v: straggler was not hedged", rep)
	}
	if rep.Duplicates == 0 {
		t.Errorf("report %+v: the straggler's late result should surface as a discarded duplicate", rep)
	}
}

// A hung worker is reclaimed by the per-unit deadline: the round-trip is
// abandoned, the poisoned connection is dropped, and the unit succeeds on a
// fresh one — the sweep finishes instead of wedging a slot forever.
func TestUnitTimeoutReclaimsHungUnit(t *testing.T) {
	const n = 5
	want := monolithic(t, "hash16", n, false)
	tr := &slowUnitTransport{target: 1, delay: 5 * time.Second}
	plan := grayPlan(t, "hash16", n, 4, false)
	start := time.Now()
	rep, err := Run(plan, Options{
		Workers:     1,
		Transport:   tr,
		UnitTimeout: 100 * time.Millisecond,
		Retries:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats != want {
		t.Errorf("deadline sweep stats %+v, want %+v", rep.Stats, want)
	}
	if rep.DeadlineKills == 0 {
		t.Errorf("report %+v: hung unit was not deadline-killed", rep)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("sweep took %s: the hung round-trip stalled the slot instead of being abandoned", elapsed)
	}
}

func TestParseChaos(t *testing.T) {
	got, err := ParseChaos("seed=7, drop=0.05, hang=0.02, hangfor=3s, corrupt=0.01, delayfor=20ms")
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosOptions{Seed: 7, Drop: 0.05, Hang: 0.02, Corrupt: 0.01,
		HangFor: 3 * time.Second, DelayFor: 20 * time.Millisecond}
	if *got != want {
		t.Errorf("parsed %+v, want %+v", *got, want)
	}
	for _, bad := range []string{
		"drop=2",            // rate out of range
		"drop=-0.1",         // negative rate
		"drop=NaN,hang=nan", // non-finite rates
		"lose=+Inf",         // infinite rate
		"bogus=1",           // unknown key
		"drop",              // not key=value
		"hangfor=fast",      // unparseable duration
		"seed=x",            // unparseable seed
		"drop=0.6,lose=0.6", // rates sum past 1
	} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
}

// Chaos wrapping must not break TCP slot pinning: the pinned copy shares the
// fault schedule and counters with its parent.
func TestChaosTransportPinsThroughToTCP(t *testing.T) {
	tcp := &TCP{Addrs: []string{"a:1", "b:1"}}
	chaos := NewChaosTransport(tcp, ChaosOptions{Seed: 1})
	p, ok := Transport(chaos).(slotPinner)
	if !ok {
		t.Fatal("ChaosTransport does not pass slot pinning through")
	}
	pinned, ok := p.pinned(1).(*ChaosTransport)
	if !ok {
		t.Fatalf("pinned chaos transport is %T", p.pinned(1))
	}
	if pinned.state != chaos.state {
		t.Error("pinned copy does not share the fault schedule state")
	}
	inner, ok := pinned.inner.(*TCP)
	if !ok || inner.Start != 1 {
		t.Errorf("pinned inner transport %#v, want *TCP with Start=1", pinned.inner)
	}
	if !strings.Contains(chaos.Name(), tcp.Name()) {
		t.Errorf("chaos name %q does not mention the inner transport", chaos.Name())
	}
}
