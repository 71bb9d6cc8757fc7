package engine_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"refereenet/internal/collide"
	"refereenet/internal/engine"
)

func randomStats(rng *rand.Rand) engine.BatchStats {
	return engine.BatchStats{
		Graphs:    rng.Uint64() >> 8,
		TotalBits: rng.Uint64() >> 8,
		MaxBits:   rng.Intn(1 << 20),
		MaxN:      rng.Intn(1 << 10),
		Accepted:  rng.Uint64() >> 8,
		Rejected:  rng.Uint64() >> 8,
		Errors:    rng.Uint64() >> 8,
	}
}

// Merge must be commutative and associative: the sweep coordinator merges
// shard results in completion order, which is nondeterministic, and the
// totals must not depend on it.
func TestBatchStatsMergeCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		a, b, c := randomStats(rng), randomStats(rng), randomStats(rng)

		ab := a
		ab.Merge(b)
		ba := b
		ba.Merge(a)
		if ab != ba {
			t.Fatalf("merge not commutative: a+b=%+v, b+a=%+v", ab, ba)
		}

		abc := ab
		abc.Merge(c)
		bc := b
		bc.Merge(c)
		aBC := a
		aBC.Merge(bc)
		if abc != aBC {
			t.Fatalf("merge not associative: (a+b)+c=%+v, a+(b+c)=%+v", abc, aBC)
		}
	}
}

func TestBatchStatsMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomStats(rng)
	got := a
	got.Merge(engine.BatchStats{})
	if got != a {
		t.Errorf("merging the zero value changed %+v into %+v", a, got)
	}
	zero := engine.BatchStats{}
	zero.Merge(a)
	if zero != a {
		t.Errorf("zero+a = %+v, want %+v", zero, a)
	}
}

// BatchStats crosses process boundaries as JSON (worker replies, manifest
// checkpoint lines); the round trip must be exact, including values past
// 2^53 where float64 decoding would corrupt them.
func TestBatchStatsJSONRoundTrip(t *testing.T) {
	cases := []engine.BatchStats{
		{},
		{Graphs: 1, TotalBits: 2, MaxBits: 3, MaxN: 4, Accepted: 5, Rejected: 6, Errors: 7},
		{Graphs: 1<<63 + 9, TotalBits: 1<<62 + 3, Accepted: 1 << 60},
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		cases = append(cases, randomStats(rng))
	}
	for _, want := range cases {
		buf, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got engine.BatchStats
		if err := json.Unmarshal(buf, &got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip %s: got %+v, want %+v", buf, got, want)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	want := engine.Plan{Shards: []engine.ShardSpec{
		{
			Protocol: "hash16",
			Source:   engine.SourceSpec{Kind: "gray", N: 6, Lo: 0, Hi: 1 << 14},
		},
		{
			Protocol: "oracle-conn",
			Sched:    "async",
			Config:   engine.Config{N: 6, Seed: 9},
			Decide:   true,
			Source:   engine.SourceSpec{Kind: "family", Family: "gnp", N: 12, P: 0.3, Seed: 4, Count: 50},
		},
	}}
	buf, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got engine.Plan
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != len(want.Shards) {
		t.Fatalf("round trip lost shards: %d vs %d", len(got.Shards), len(want.Shards))
	}
	for i := range want.Shards {
		if got.Shards[i] != want.Shards[i] {
			t.Errorf("shard %d: got %+v, want %+v", i, got.Shards[i], want.Shards[i])
		}
	}
}

func TestResolveSourceGray(t *testing.T) {
	src, err := engine.ResolveSource(engine.SourceSpec{Kind: "gray", N: 4, Lo: 3, Hi: 40})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for g := src.Next(); g != nil; g = src.Next() {
		count++
	}
	if count != 37 {
		t.Errorf("gray range [3,40) yielded %d graphs, want 37", count)
	}

	// Hi = 0 means the full space.
	src, err = engine.ResolveSource(engine.SourceSpec{Kind: "gray", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	count = 0
	for g := src.Next(); g != nil; g = src.Next() {
		count++
	}
	if count != 8 {
		t.Errorf("full n=3 gray source yielded %d graphs, want 8", count)
	}

	for _, bad := range []engine.SourceSpec{
		{Kind: "no-such-kind"},
		{Kind: "gray", N: 99},
		{Kind: "gray", N: 4, Lo: 10, Hi: 5},
		{Kind: "gray", N: 4, Lo: 0, Hi: 1 << 20},
		// Hi = 0 is the full-space default only with Lo = 0; a nonzero Lo
		// with a missing Hi is a malformed spec, not a tail range.
		{Kind: "gray", N: 4, Lo: 10, Hi: 0},
		{Kind: "family", Family: "no-such-family", N: 8, Count: 3},
		{Kind: "family", Family: "gnp", N: 8, Count: -1},
		// Edge probabilities outside [0, 1] would silently yield complete
		// (p > 1) or empty (p < 0, NaN) graphs.
		{Kind: "family", Family: "gnp", N: 8, P: 1.5, Count: 3},
		{Kind: "family", Family: "gnp", N: 8, P: -0.1, Count: 3},
		{Kind: "family", Family: "gnp", N: 8, P: math.NaN(), Count: 3},
		// Valid family, parameters its constructor rejects by panicking:
		// the resolver must convert that into an error, not crash a worker.
		{Kind: "family", Family: "ktree", N: 4, K: 10, Count: 5},
		{Kind: "family", Family: "cycle", N: 2, Count: 1},
	} {
		if _, err := engine.ResolveSource(bad); err == nil {
			t.Errorf("spec %+v resolved without error", bad)
		}
	}
}

func TestResolveSourceFamilyDeterministic(t *testing.T) {
	spec := engine.SourceSpec{Kind: "family", Family: "gnp", N: 10, P: 0.4, Seed: 77, Count: 25}
	build := func() []*struct{ n, m int } {
		src, err := engine.ResolveSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		var shapes []*struct{ n, m int }
		for g := src.Next(); g != nil; g = src.Next() {
			shapes = append(shapes, &struct{ n, m int }{g.N(), g.M()})
		}
		return shapes
	}
	a, b := build(), build()
	if len(a) != 25 || len(b) != 25 {
		t.Fatalf("family source yielded %d and %d graphs, want 25", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("graph %d differs across identical specs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The execute stage over a split plan must reproduce the monolithic run: a
// gray sweep split into shard specs, executed independently and merged,
// equals one single-process batch over the whole range — and the decider
// tallies equal the exact family counts.
func TestExecuteShardsMergeEqualsMonolithicRun(t *testing.T) {
	const n = 5
	total := uint64(1) << uint(n*(n-1)/2)

	p, _ := engine.New("oracle-conn", engine.Config{})
	want := engine.RunBatch(p, collide.NewGraySource(n), engine.BatchOptions{Workers: 1, Decide: true})

	bounds := []uint64{0, 100, total / 3, total - 1, total}
	var merged engine.BatchStats
	for i := 0; i+1 < len(bounds); i++ {
		st, err := engine.ExecuteShard(engine.ShardSpec{
			Protocol: "oracle-conn",
			Decide:   true,
			Source:   engine.SourceSpec{Kind: "gray", N: n, Lo: bounds[i], Hi: bounds[i+1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(st)
	}
	if merged != want {
		t.Fatalf("merged shard stats %+v, want %+v", merged, want)
	}
	if fc := collide.Count(n); merged.Accepted != fc.Connected {
		t.Errorf("decider accepted %d graphs, exact connected count is %d", merged.Accepted, fc.Connected)
	}
}

func TestExecuteShardErrors(t *testing.T) {
	for _, bad := range []engine.ShardSpec{
		{Protocol: "no-such-protocol", Source: engine.SourceSpec{Kind: "gray", N: 3}},
		{Protocol: "degree", Sched: "no-such-sched", Source: engine.SourceSpec{Kind: "gray", N: 3}},
		{Protocol: "degree", Source: engine.SourceSpec{Kind: "no-such-kind"}},
	} {
		if _, err := engine.ExecuteShard(bad); err == nil {
			t.Errorf("spec %+v executed without error", bad)
		}
	}
}

// A shard under a named scheduler must produce the same accounting as the
// serial path — schedulers are wall-clock-only, even across the spec layer.
func TestExecuteShardSchedulerIndependent(t *testing.T) {
	src := engine.SourceSpec{Kind: "family", Family: "tree", N: 30, Seed: 11, Count: 40}
	base, err := engine.ExecuteShard(engine.ShardSpec{Protocol: "forest", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []string{"serial", "chunked", "async"} {
		st, err := engine.ExecuteShard(engine.ShardSpec{Protocol: "forest", Sched: sched, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if st != base {
			t.Errorf("sched=%s stats %+v, want %+v", sched, st, base)
		}
	}
}

// Shard specs carry 36-bit Gray ranks once n = 9 sweeps are planned; the
// JSON layer must round-trip them exactly (they are far below the 2^53
// float hazard, but the test pins the full uint64 path end to end) and the
// plan fingerprint must be sensitive to every rank bit.
func TestShardSpec36BitRanksRoundTripAndFingerprint(t *testing.T) {
	spec := engine.ShardSpec{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "gray", N: 9, Lo: 1<<36 - 12345, Hi: 1 << 36},
	}
	buf, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got engine.ShardSpec
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Fatalf("36-bit spec round trip: got %+v, want %+v", got, spec)
	}

	plan := engine.Plan{Shards: []engine.ShardSpec{spec}}
	fp1, err := plan.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	plan.Shards[0].Source.Lo++ // one rank off — a different sweep
	fp2, err := plan.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Error("plan fingerprint ignored a 36-bit rank change")
	}
}

// SplitRange must partition [lo, hi) exactly: contiguous, non-empty chunks
// whose union is the input — including 36-bit ranges, word-edge boundaries
// and the lo = hi degenerate case. This is the arithmetic both the sweep
// planner and the serve -parallel executor stand on.
func TestSplitRangePartition(t *testing.T) {
	check := func(lo, hi uint64, units int) {
		t.Helper()
		chunks := engine.SplitRange(lo, hi, units)
		if lo == hi {
			if chunks != nil {
				t.Fatalf("SplitRange(%d, %d, %d) = %v, want nil for the empty range", lo, hi, units, chunks)
			}
			return
		}
		if len(chunks) == 0 {
			t.Fatalf("SplitRange(%d, %d, %d) returned no chunks for a non-empty range", lo, hi, units)
		}
		wantUnits := units
		if wantUnits < 1 {
			wantUnits = 1
		}
		if uint64(wantUnits) > hi-lo {
			wantUnits = int(hi - lo)
		}
		if len(chunks) != wantUnits {
			t.Fatalf("SplitRange(%d, %d, %d) emitted %d chunks, want %d", lo, hi, units, len(chunks), wantUnits)
		}
		if chunks[0][0] != lo || chunks[len(chunks)-1][1] != hi {
			t.Fatalf("SplitRange(%d, %d, %d) covers [%d, %d)", lo, hi, units, chunks[0][0], chunks[len(chunks)-1][1])
		}
		for i, c := range chunks {
			if c[0] >= c[1] {
				t.Fatalf("chunk %d of SplitRange(%d, %d, %d) is empty or inverted: %v", i, lo, hi, units, c)
			}
			if i > 0 && chunks[i-1][1] != c[0] {
				t.Fatalf("chunks %d and %d of SplitRange(%d, %d, %d) leave a gap or overlap: %v then %v",
					i-1, i, lo, hi, units, chunks[i-1], c)
			}
		}
	}

	// The deliberate boundary cases: the full 36-bit space, windows
	// straddling the 2^32 word edge, degenerate and tiny ranges, more units
	// than ranks.
	check(0, 1<<36, 256)
	check(0, 1<<36, 1)
	check(1<<32-3, 1<<32+3, 4)
	check(1<<36-17, 1<<36, 64)
	check(5, 5, 3)         // lo = hi
	check(1<<36, 1<<36, 1) // lo = hi at the top of the space
	check(0, 1, 10)
	check(7, 10, 100)

	// And the property pass: random 36-bit ranges and unit counts.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		lo := rng.Uint64() & (1<<36 - 1)
		hi := lo + rng.Uint64()&(1<<36-1)
		if hi > 1<<36 {
			hi = 1 << 36
		}
		check(lo, hi, rng.Intn(300))
	}
}

// SplitShard on a splittable source must cover exactly the original stream:
// resolving every sub-spec and concatenating the graphs equals resolving the
// unsplit spec. Unsplittable kinds must come back whole.
func TestSplitShardCoversOriginalStream(t *testing.T) {
	spec := engine.ShardSpec{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "gray", N: 5, Lo: 3, Hi: 1000},
	}
	masks := func(specs []engine.ShardSpec) []uint64 {
		var out []uint64
		for _, s := range specs {
			src, err := engine.ResolveSource(s.Source)
			if err != nil {
				t.Fatal(err)
			}
			m, ok := src.(interface{ Mask() uint64 })
			if !ok {
				t.Fatal("gray source lost its Mask accessor")
			}
			for g := src.Next(); g != nil; g = src.Next() {
				out = append(out, m.Mask())
			}
		}
		return out
	}
	want := masks([]engine.ShardSpec{spec})
	for _, parts := range []int{2, 3, 7, 64} {
		subs := engine.SplitShard(spec, parts)
		if len(subs) != parts {
			t.Fatalf("SplitShard(parts=%d) emitted %d sub-shards", parts, len(subs))
		}
		for _, s := range subs {
			if s.Protocol != spec.Protocol {
				t.Fatalf("sub-shard lost the protocol: %+v", s)
			}
		}
		if got := masks(subs); len(got) != len(want) {
			t.Fatalf("parts=%d: sub-shards yielded %d graphs, want %d", parts, len(got), len(want))
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("parts=%d: graph %d has mask %d, want %d", parts, i, got[i], want[i])
				}
			}
		}
	}

	// Unsplittable shapes come back as the original, whole.
	for _, whole := range []engine.ShardSpec{
		{Protocol: "forest", Source: engine.SourceSpec{Kind: "family", Family: "tree", N: 20, Seed: 3, Count: 10}},
		{Protocol: "hash16", Source: engine.SourceSpec{Kind: "no-such-kind"}},
		spec, // parts < 2
	} {
		parts := 4
		if whole == spec {
			parts = 1
		}
		subs := engine.SplitShard(whole, parts)
		if len(subs) != 1 || subs[0] != whole {
			t.Errorf("SplitShard(%+v, %d) = %+v, want the unsplit original", whole, parts, subs)
		}
	}

	// A malformed gray range declines to split, so the resolution error is
	// reported once, on the original.
	bad := engine.ShardSpec{Protocol: "hash16", Source: engine.SourceSpec{Kind: "gray", N: 5, Lo: 9, Hi: 4}}
	if subs := engine.SplitShard(bad, 4); len(subs) != 1 || subs[0] != bad {
		t.Errorf("malformed spec split into %+v, want the unsplit original", subs)
	}
}
