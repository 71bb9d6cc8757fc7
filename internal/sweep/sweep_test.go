package sweep

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"refereenet/internal/collide"
	"refereenet/internal/corpus"
	"refereenet/internal/engine"
	"refereenet/internal/graph"

	// Populate the protocol registry for in-process and daemon workers.
	_ "refereenet/internal/core"
	_ "refereenet/internal/gen"
	_ "refereenet/internal/sketch"
)

// resolveCount counts "counted-gray" resolutions — one per executed unit —
// so resume tests can assert how much work actually re-ran.
var resolveCount atomic.Int64

// flakyFailed makes the "flaky-gray" kind fail the first resolution of each
// distinct range, exercising the coordinator's retry path. Mutex-guarded:
// resolvers run on concurrent in-process workers.
var flakyFailed = struct {
	sync.Mutex
	m map[uint64]bool
}{m: map[uint64]bool{}}

func init() {
	engine.RegisterSource("counted-gray", func(spec engine.SourceSpec) (engine.Source, error) {
		resolveCount.Add(1)
		return collide.GraySourceForRange(spec.N, spec.Lo, spec.Hi)
	})
	engine.RegisterSource("flaky-gray", func(spec engine.SourceSpec) (engine.Source, error) {
		flakyFailed.Lock()
		first := !flakyFailed.m[spec.Lo]
		flakyFailed.m[spec.Lo] = true
		flakyFailed.Unlock()
		if first {
			return nil, fmt.Errorf("injected transient failure at lo=%d", spec.Lo)
		}
		return collide.GraySourceForRange(spec.N, spec.Lo, spec.Hi)
	})
}

func grayPlan(t *testing.T, protocol string, n int, units int, decide bool) engine.Plan {
	t.Helper()
	total := uint64(1) << uint(n*(n-1)/2)
	plan, err := SplitGrayRanks(engine.ShardSpec{Protocol: protocol, Decide: decide}, n, 0, total, units)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func monolithic(t *testing.T, protocol string, n int, decide bool) engine.BatchStats {
	t.Helper()
	p, ok := engine.New(protocol, engine.Config{N: n})
	if !ok {
		t.Fatalf("protocol %q not registered", protocol)
	}
	return engine.RunBatch(p, collide.NewGraySource(n), engine.BatchOptions{Workers: 1, Decide: decide})
}

// The headline guarantee: a multi-worker sweep over split rank ranges merges
// to stats identical to the single-process run, for any worker count.
func TestSweepMatchesMonolithicRun(t *testing.T) {
	const n = 6
	want := monolithic(t, "hash16", n, false)
	for _, workers := range []int{1, 2, 5} {
		plan := grayPlan(t, "hash16", n, 9, false)
		got, err := Run(plan, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want {
			t.Errorf("workers=%d: sweep stats %+v, want %+v", workers, got.Stats, want)
		}
		if got.Units != len(plan.Shards) || got.Executed != len(plan.Shards) {
			t.Errorf("workers=%d: report %+v, want %d units all executed", workers, got, len(plan.Shards))
		}
	}
}

// Decide-mode sweeps must reproduce the exact family counts the collide
// package computes — the cross-check the CI end-to-end job scripts.
func TestSweepDeciderMatchesExactCounts(t *testing.T) {
	const n = 5
	plan := grayPlan(t, "oracle-conn", n, 4, true)
	got, err := Run(plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc := collide.Count(n)
	if got.Stats.Accepted != fc.Connected {
		t.Errorf("sweep accepted %d, exact connected count is %d", got.Stats.Accepted, fc.Connected)
	}
	if got.Stats.Graphs != fc.All {
		t.Errorf("sweep saw %d graphs, space has %d", got.Stats.Graphs, fc.All)
	}
}

// InProcess over the caller's Executor: units split across the pool, so a
// plan with fewer units than pool workers still fans out, and the merged
// stats stay byte-identical to the monolithic run. The pool outlives the
// sweep — Run never closes what the caller owns.
func TestSweepInProcessOverCallerExecutor(t *testing.T) {
	const n = 6
	want := monolithic(t, "oracle-conn", n, true)
	pool := NewExecutor(3)
	defer pool.Close()
	plan := grayPlan(t, "oracle-conn", n, 2, true)
	for _, workers := range []int{1, 2} {
		got, err := Run(plan, Options{Workers: workers, Transport: InProcess{Executor: pool}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats != want {
			t.Errorf("workers=%d: pooled sweep stats %+v, want %+v", workers, got.Stats, want)
		}
	}
	if res := pool.Execute(Unit{ID: 1, Spec: plan.Shards[0]}); res.Err != "" {
		t.Errorf("caller's pool unusable after the sweeps: %s", res.Err)
	}
}

// A unit that panics on the direct-call path fails that unit in-band — the
// coordinator charges its retry budget and reports it — instead of taking the
// coordinator's process down with it.
func TestSweepInProcessPanicIsUnitError(t *testing.T) {
	plan := engine.Plan{Shards: []engine.ShardSpec{{
		Protocol: "hash16",
		Source:   engine.SourceSpec{Kind: "panicky", N: 5, Lo: 0, Hi: 1 << 10},
	}}}
	rep, err := Run(plan, Options{Workers: 1, Retries: 1})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking unit: err %v, want a reported panic", err)
	}
	if rep.Failed != 1 || rep.Retries != 2 {
		t.Errorf("report %+v, want 1 failed unit after 2 attempts", rep)
	}
}

func TestSweepResumeSkipsCheckpointedUnits(t *testing.T) {
	const n, units = 5, 8
	dir := t.TempDir()
	want := monolithic(t, "hash16", n, false)
	plan := grayPlan(t, "hash16", n, units, false)
	for i := range plan.Shards {
		plan.Shards[i].Source.Kind = "counted-gray"
	}

	// Full run, checkpointed.
	full := filepath.Join(dir, "full.manifest")
	resolveCount.Store(0)
	got, err := Run(plan, Options{Workers: 2, Manifest: full})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Fatalf("checkpointed sweep stats %+v, want %+v", got.Stats, want)
	}
	if c := resolveCount.Load(); c != units {
		t.Fatalf("full run executed %d units, want %d", c, units)
	}

	// Simulate a coordinator killed after 3 completed units: keep the
	// header plus the first 3 checkpoint lines.
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != units+1 {
		t.Fatalf("manifest has %d lines, want header+%d", len(lines), units)
	}
	partial := filepath.Join(dir, "partial.manifest")
	// A torn trailing line — killed mid-append — must also be tolerated.
	torn := strings.Join(lines[:4], "\n") + "\n" + lines[4][:len(lines[4])/2]
	if err := os.WriteFile(partial, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resolveCount.Store(0)
	got, err = Run(plan, Options{Workers: 2, Manifest: partial})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("resumed sweep stats %+v, want %+v", got.Stats, want)
	}
	if c := resolveCount.Load(); c != units-3 {
		t.Errorf("resume executed %d units, want %d (3 checkpointed)", c, units-3)
	}
	if got.Restored != 3 || got.Executed != units-3 {
		t.Errorf("resume report %+v, want 3 restored and %d executed", got, units-3)
	}

	// The resume must have trimmed the torn line before appending — a
	// second resume of the same file restores everything. (Appending onto
	// the torn bytes would glue two records into an unparseable line and
	// silently discard it and every record after it.)
	resolveCount.Store(0)
	got, err = Run(plan, Options{Workers: 2, Manifest: partial})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("second resume stats %+v, want %+v", got.Stats, want)
	}
	if c := resolveCount.Load(); c != 0 {
		t.Errorf("second resume executed %d units, want 0 (all checkpointed after repair)", c)
	}

	// Resuming a finished manifest executes nothing.
	resolveCount.Store(0)
	got, err = Run(plan, Options{Workers: 2, Manifest: full})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("no-op resume stats %+v, want %+v", got.Stats, want)
	}
	if c := resolveCount.Load(); c != 0 {
		t.Errorf("no-op resume executed %d units, want 0", c)
	}
}

// A garbled line in the middle of a manifest — disk trouble, an editor
// mishap — must cost exactly the units whose records were damaged, not
// every record after the bad line.
func TestSweepManifestSkipsGarbledInteriorLine(t *testing.T) {
	const n, units = 5, 8
	dir := t.TempDir()
	want := monolithic(t, "hash16", n, false)
	plan := grayPlan(t, "hash16", n, units, false)
	for i := range plan.Shards {
		plan.Shards[i].Source.Kind = "counted-gray"
	}
	full := filepath.Join(dir, "full.manifest")
	if _, err := Run(plan, Options{Workers: 2, Manifest: full}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != units+1 {
		t.Fatalf("manifest has %d lines, want header+%d", len(lines), units)
	}
	// Garble two interior records (not the header, not the last line).
	lines[2] = "{{{ not json at all"
	lines[5] = lines[5][:len(lines[5])/2]
	garbled := filepath.Join(dir, "garbled.manifest")
	if err := os.WriteFile(garbled, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	resolveCount.Store(0)
	got, err := Run(plan, Options{Workers: 2, Manifest: garbled})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("garbled-manifest sweep stats %+v, want %+v", got.Stats, want)
	}
	if c := resolveCount.Load(); c != 2 {
		t.Errorf("resume executed %d units, want exactly the 2 garbled ones", c)
	}
	if got.Restored != units-2 {
		t.Errorf("report %+v, want %d restored", got, units-2)
	}
}

// A duplicated checkpoint record — two coordinators racing one manifest, a
// replayed append after a partial fsync — must merge its unit once, never
// twice: the exact-integer totals would make any double merge visible.
func TestSweepManifestDuplicateRecordsMergeOnce(t *testing.T) {
	const n, units = 5, 6
	dir := t.TempDir()
	want := monolithic(t, "hash16", n, false)
	plan := grayPlan(t, "hash16", n, units, false)
	full := filepath.Join(dir, "full.manifest")
	if _, err := Run(plan, Options{Workers: 2, Manifest: full}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	// Duplicate every record, shuffled in wherever: delivery order and
	// multiplicity must not matter.
	dup := append([]string{}, lines...)
	dup = append(dup, lines[1:]...)
	dupPath := filepath.Join(dir, "dup.manifest")
	if err := os.WriteFile(dupPath, []byte(strings.Join(dup, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Run(plan, Options{Workers: 2, Manifest: dupPath})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("duplicate-record manifest stats %+v, want %+v", got.Stats, want)
	}
	if got.Restored != units || got.Executed != 0 {
		t.Errorf("report %+v, want all %d units restored once", got, units)
	}
}

func TestSweepManifestRejectsDifferentPlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.manifest")
	planA := grayPlan(t, "hash16", 4, 4, false)
	if _, err := Run(planA, Options{Workers: 1, Manifest: path}); err != nil {
		t.Fatal(err)
	}
	planB := grayPlan(t, "degree", 4, 4, false)
	if _, err := Run(planB, Options{Workers: 1, Manifest: path}); err == nil {
		t.Error("manifest from a different plan was accepted")
	} else if !strings.Contains(err.Error(), "different plan") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestSweepRetriesTransientFailures(t *testing.T) {
	// Forget earlier runs' failures, so every unit fails once again under
	// -count > 1.
	flakyFailed.Lock()
	flakyFailed.m = map[uint64]bool{}
	flakyFailed.Unlock()
	const n = 4
	want := monolithic(t, "degree", n, false)
	plan := grayPlan(t, "degree", n, 3, false)
	for i := range plan.Shards {
		plan.Shards[i].Source.Kind = "flaky-gray"
	}
	// Every unit fails once; one retry each must heal the sweep.
	got, err := Run(plan, Options{Workers: 2, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("retried sweep stats %+v, want %+v", got.Stats, want)
	}
	if got.Retries == 0 || got.Requeues == 0 {
		t.Errorf("flaky sweep report %+v, want non-zero retries and requeues", got)
	}
}

func TestSweepPermanentFailureReported(t *testing.T) {
	plan := engine.Plan{Shards: []engine.ShardSpec{{
		Protocol: "degree",
		Source:   engine.SourceSpec{Kind: "no-such-kind"},
	}}}
	if _, err := Run(plan, Options{Workers: 1, Retries: 1}); err == nil {
		t.Error("sweep with an unresolvable unit reported success")
	}
}

func TestSplitGrayRanksCoverage(t *testing.T) {
	const n = 5
	total := uint64(1) << uint(n*(n-1)/2)
	for _, units := range []int{1, 3, 7, 64} {
		plan, err := SplitGrayRanks(engine.ShardSpec{Protocol: "degree"}, n, 0, total, units)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Shards) != units {
			t.Fatalf("units=%d: got %d shards", units, len(plan.Shards))
		}
		var covered uint64
		prev := uint64(0)
		for i, s := range plan.Shards {
			if s.Source.Lo != prev {
				t.Fatalf("units=%d shard %d: starts at %d, previous ended at %d", units, i, s.Source.Lo, prev)
			}
			if s.Source.Hi <= s.Source.Lo {
				t.Fatalf("units=%d shard %d: empty range [%d,%d)", units, i, s.Source.Lo, s.Source.Hi)
			}
			covered += s.Source.Hi - s.Source.Lo
			prev = s.Source.Hi
		}
		if covered != total || prev != total {
			t.Fatalf("units=%d: covered %d ranks ending at %d, want %d", units, covered, prev, total)
		}
	}
	// More units than ranks clamps rather than emitting empty shards.
	plan, err := SplitGrayRanks(engine.ShardSpec{Protocol: "degree"}, 2, 0, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 2 {
		t.Errorf("clamp: got %d shards, want 2", len(plan.Shards))
	}
}

// A corpus sweep — split into record-range units, dispatched across workers,
// checkpointed — must merge to the stats of one pass over the same graphs.
func TestSplitCorpusCoverageAndSweep(t *testing.T) {
	const n, records, units = 6, 100, 7
	rng := rand.New(rand.NewSource(9))
	limit := uint64(1) << uint(n*(n-1)/2)
	masks := make([]uint64, records)
	graphs := make([]*graph.Graph, records)
	for i := range masks {
		masks[i] = rng.Uint64() % limit
		graphs[i] = graph.FromEdgeMask(n, masks[i])
	}
	path := filepath.Join(t.TempDir(), "sweep.corpus")
	if err := corpus.WriteFile(path, n, masks); err != nil {
		t.Fatal(err)
	}

	shard := engine.ShardSpec{Protocol: "hash16"}
	plan, err := SplitCorpus(shard, path, n, records, units)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != units {
		t.Fatalf("got %d shards, want %d", len(plan.Shards), units)
	}
	var covered uint64
	prev := uint64(0)
	for i, s := range plan.Shards {
		if s.Source.Kind != "file" || s.Source.Path != path || s.Source.N != n {
			t.Fatalf("shard %d names %+v", i, s.Source)
		}
		if s.Source.Lo != prev {
			t.Fatalf("shard %d starts at %d, previous ended at %d", i, s.Source.Lo, prev)
		}
		covered += s.Source.Hi - s.Source.Lo
		prev = s.Source.Hi
	}
	if covered != records || prev != records {
		t.Fatalf("covered %d records ending at %d, want %d", covered, prev, records)
	}

	p, _ := engine.New("hash16", engine.Config{N: n})
	want := engine.RunBatch(p, engine.NewSliceSource(graphs), engine.BatchOptions{Workers: 1})
	mfPath := filepath.Join(t.TempDir(), "corpus.manifest")
	got, err := Run(plan, Options{Workers: 3, Manifest: mfPath})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("corpus sweep stats %+v, want %+v", got.Stats, want)
	}
	// Checkpoint-resumable like everything else.
	got, err = Run(plan, Options{Workers: 3, Manifest: mfPath})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want {
		t.Errorf("resumed corpus sweep stats %+v, want %+v", got.Stats, want)
	}
}

func TestSplitFamilyCoverage(t *testing.T) {
	plan, err := SplitFamily(engine.ShardSpec{Protocol: "forest"}, "tree", 20, 0, 0, 7, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(plan.Shards))
	}
	sum := 0
	seeds := map[int64]bool{}
	for _, s := range plan.Shards {
		sum += s.Source.Count
		seeds[s.Source.Seed] = true
	}
	if sum != 10 {
		t.Errorf("shard counts sum to %d, want 10", sum)
	}
	if len(seeds) != 4 {
		t.Errorf("shards share seeds: %d distinct of 4", len(seeds))
	}
	st, err := Run(plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.Graphs != 10 {
		t.Errorf("family sweep ran %d graphs, want 10", st.Stats.Graphs)
	}
}

func TestFingerprintDistinguishesPlans(t *testing.T) {
	fp := func(p engine.Plan) string {
		t.Helper()
		s, err := Fingerprint(p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := grayPlan(t, "hash16", 5, 4, false)
	b := grayPlan(t, "hash16", 5, 4, true)
	if fp(a) == fp(b) {
		t.Error("different plans share a fingerprint")
	}
	if fp(a) != fp(grayPlan(t, "hash16", 5, 4, false)) {
		t.Error("identical plans disagree on fingerprint")
	}
	// A plan JSON cannot represent (NaN edge probability straight from a
	// -p flag) must error, not panic, and a manifest run must surface it.
	bad := engine.Plan{Shards: []engine.ShardSpec{{
		Protocol: "degree",
		Source:   engine.SourceSpec{Kind: "family", Family: "gnp", N: 4, P: math.NaN(), Count: 1},
	}}}
	if _, err := Fingerprint(bad); err == nil {
		t.Error("NaN plan fingerprinted without error")
	}
	if _, err := Run(bad, Options{Workers: 1, Manifest: filepath.Join(t.TempDir(), "nan.manifest")}); err == nil {
		t.Error("NaN plan ran with a manifest without error")
	}
}

// A reused template spec must not leak stale source fields into gray plans:
// two logically identical plans must fingerprint identically regardless of
// the template's history.
func TestSplitGrayRanksIgnoresTemplateSourceJunk(t *testing.T) {
	clean := engine.ShardSpec{Protocol: "degree"}
	dirty := engine.ShardSpec{
		Protocol: "degree",
		Source:   engine.SourceSpec{Kind: "family", Family: "gnp", Count: 99, Seed: 7, P: 0.5},
	}
	a, err := SplitGrayRanks(clean, 4, 0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SplitGrayRanks(dirty, 4, 0, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	fpA, _ := Fingerprint(a)
	fpB, _ := Fingerprint(b)
	if fpA != fpB {
		t.Errorf("template source junk leaked into the plan:\n%+v\nvs\n%+v", a.Shards[0], b.Shards[0])
	}
}

// The Progress hook reports every unit's terminal transition exactly once:
// monotone counts ending at the plan size, restored manifest units included
// as one up-front call.
func TestSweepProgressHook(t *testing.T) {
	const n, units = 5, 6
	plan := grayPlan(t, "hash16", n, units, false)

	var mu sync.Mutex
	var calls [][2]int
	rep, err := Run(plan, Options{Workers: 2, Progress: func(done, total int) {
		mu.Lock()
		calls = append(calls, [2]int{done, total})
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != units {
		t.Fatalf("progress called %d times, want %d: %v", len(calls), units, calls)
	}
	seen := map[int]bool{}
	for _, c := range calls {
		if c[1] != units {
			t.Errorf("progress total %d, want %d", c[1], units)
		}
		if c[0] < 1 || c[0] > units || seen[c[0]] {
			t.Errorf("progress done values not a permutation of 1..%d: %v", units, calls)
			break
		}
		seen[c[0]] = true
	}
	if rep.Executed != units {
		t.Errorf("report executed %d, want %d", rep.Executed, units)
	}

	// A manifest-resumed rerun reports the restored units in one up-front
	// call and nothing else.
	dir := t.TempDir()
	mfPath := filepath.Join(dir, "progress.manifest")
	if _, err := Run(plan, Options{Workers: 2, Manifest: mfPath}); err != nil {
		t.Fatal(err)
	}
	calls = nil
	if _, err := Run(plan, Options{Workers: 2, Manifest: mfPath, Progress: func(done, total int) {
		mu.Lock()
		calls = append(calls, [2]int{done, total})
		mu.Unlock()
	}}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != [2]int{units, units} {
		t.Errorf("resumed run progress calls %v, want one (%d,%d) call", calls, units, units)
	}
}
