package canon_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"refereenet/internal/canon"
	"refereenet/internal/engine"
	"refereenet/internal/sweep"

	_ "refereenet/internal/collide" // "gray" source kind
	_ "refereenet/internal/core"    // oracle protocols
)

// Verified labelled counts (OEIS): A001187 = connected labelled graphs,
// A001858 = labelled forests.
var (
	a001187 = map[int]uint64{4: 38, 5: 728, 6: 26704, 7: 1866256, 8: 251548592}
	a001858 = map[int]uint64{4: 38, 5: 291, 6: 2932, 7: 36961, 8: 561948}
)

func shardFor(protocol string, n int) engine.ShardSpec {
	return engine.ShardSpec{
		Protocol: protocol,
		Sched:    "serial",
		Config:   engine.Config{N: n},
		Decide:   true,
	}
}

func runPlan(t *testing.T, plan engine.Plan) engine.BatchStats {
	t.Helper()
	var total engine.BatchStats
	for _, sh := range plan.Shards {
		st, err := engine.ExecuteShard(sh)
		if err != nil {
			t.Fatalf("shard %+v: %v", sh.Source, err)
		}
		total.Merge(st)
	}
	return total
}

// TestCanonSweepByteIdenticalToGray is the tentpole's acceptance gate: a
// weighted canon sweep, unit-split and merged through the same
// plan/execute/merge machinery as production, must reconstitute BatchStats
// byte-identical (every field) to the exhaustive gray sweep — and both must
// equal the independently verified OEIS labelled counts. The gray side is
// the cost: 2^21 graphs at n = 7 (seconds, -short stops at n = 6); the n = 8
// soak lives in TestCanonSweepN8, and cmd/refereesim's TestRefereesim
// covers n = 7 through loopback serve daemons.
func TestCanonSweepByteIdenticalToGray(t *testing.T) {
	top := 7
	if testing.Short() {
		top = 6
	}
	for _, tc := range []struct {
		protocol string
		oeis     map[int]uint64
	}{
		{"oracle-conn", a001187},
		{"oracle-forest", a001858},
	} {
		for n := 4; n <= top; n++ {
			total, err := canon.ClassCount(n)
			if err != nil {
				t.Fatal(err)
			}
			canonPlan, err := sweep.SplitClasses(shardFor(tc.protocol, n), n, 0, 0, total, 5)
			if err != nil {
				t.Fatal(err)
			}
			grayPlan, err := sweep.SplitGrayRanks(shardFor(tc.protocol, n), n, 0, 1<<uint(n*(n-1)/2), 5)
			if err != nil {
				t.Fatal(err)
			}
			canonStats := runPlan(t, canonPlan)
			grayStats := runPlan(t, grayPlan)
			if canonStats != grayStats {
				t.Errorf("%s n=%d: canon sweep %+v, gray sweep %+v (must be byte-identical)", tc.protocol, n, canonStats, grayStats)
			}
			if want := tc.oeis[n]; canonStats.Accepted != want {
				t.Errorf("%s n=%d: accepted %d, OEIS says %d", tc.protocol, n, canonStats.Accepted, want)
			}
			if want := uint64(1) << uint(n*(n-1)/2); canonStats.Graphs != want {
				t.Errorf("%s n=%d: %d labelled graphs reconstituted, want 2^C(n,2) = %d", tc.protocol, n, canonStats.Graphs, want)
			}
		}
	}
}

// TestCanonSweepN8 extends the byte-identity check to n = 8 — 2^28 gray
// evaluations (~minutes), so it is env-gated like the other big soaks.
func TestCanonSweepN8(t *testing.T) {
	if os.Getenv("REFEREENET_N8_SWEEP") == "" {
		t.Skip("set REFEREENET_N8_SWEEP=1 to run the n=8 canon-vs-gray soak (minutes of gray-side work)")
	}
	const n = 8
	for _, tc := range []struct {
		protocol string
		oeis     map[int]uint64
	}{
		{"oracle-conn", a001187},
		{"oracle-forest", a001858},
	} {
		total, err := canon.ClassCount(n)
		if err != nil {
			t.Fatal(err)
		}
		canonPlan, err := sweep.SplitClasses(shardFor(tc.protocol, n), n, 0, 0, total, 8)
		if err != nil {
			t.Fatal(err)
		}
		grayPlan, err := sweep.SplitGrayRanks(shardFor(tc.protocol, n), n, 0, 1<<28, 8)
		if err != nil {
			t.Fatal(err)
		}
		canonStats := runPlan(t, canonPlan)
		grayStats := runPlan(t, grayPlan)
		if canonStats != grayStats {
			t.Errorf("%s n=8: canon %+v, gray %+v", tc.protocol, canonStats, grayStats)
		}
		if want := tc.oeis[n]; canonStats.Accepted != want {
			t.Errorf("%s n=8: accepted %d, OEIS says %d", tc.protocol, canonStats.Accepted, want)
		}
	}
}

// TestCanonSplitterDeclinesOutOfRange: a class range that runs past the
// table's end must not split, like a lo > hi range, so a `serve -parallel`
// executor reports the resolution error once, naming the range the plan
// holds rather than one of its sub-ranges.
func TestCanonSplitterDeclinesOutOfRange(t *testing.T) {
	const n = 6
	total, err := canon.ClassCount(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct{ lo, hi uint64 }{{10, total + 1}, {0, total + 1}, {20, 10}} {
		spec := shardFor("oracle-conn", n)
		spec.Source = engine.SourceSpec{Kind: "canon", N: n, Lo: r.lo, Hi: r.hi}
		if subs := engine.SplitShard(spec, 2); len(subs) != 1 || subs[0] != spec {
			t.Errorf("[%d,%d): split into %+v, want the unsplit original", r.lo, r.hi, subs)
		}
		pool := sweep.NewExecutor(2)
		res := pool.Execute(sweep.Unit{ID: 1, Spec: spec})
		pool.Close()
		if want := fmt.Sprintf("[%d,%d)", r.lo, r.hi); !strings.Contains(res.Err, want) {
			t.Errorf("[%d,%d): executor error %q does not name %s", r.lo, r.hi, res.Err, want)
		}
	}
}
