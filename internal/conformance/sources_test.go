package conformance

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"refereenet/internal/corpus"
	"refereenet/internal/engine"

	// Kinds registered by packages the protocol goldens don't already link.
	_ "refereenet/internal/canon"
	_ "refereenet/internal/gen"
)

// The source-kind half of the conformance suite: every registered source
// kind must have stream fixtures whose exact graph sequence (and, for
// weighted sources, orbit weights) is pinned in testdata/sources.json, and
// every registered splitter must prove that splitting a fixture and
// concatenating the sub-streams reproduces the unsplit stream. A new kind
// (or splitter) registered without fixture coverage fails the lineup checks
// below — the same cannot-land-silently contract the protocol goldens
// enforce.

// sourceFixtures drives both checks. Specs use small fixed parameters so a
// digest is cheap and eternally reproducible; the "file" fixture's Path is
// filled in at runtime with a temp corpus built from fixedCorpusMasks (the
// digest covers the graphs, not the path).
var sourceFixtures = []struct {
	name  string
	spec  engine.SourceSpec
	split bool // also round-trip this fixture through the kind's splitter
}{
	{"gray-n5-full", engine.SourceSpec{Kind: "gray", N: 5}, true},
	{"gray-n6-window", engine.SourceSpec{Kind: "gray", N: 6, Lo: 100, Hi: 612}, true},
	{"family-forest-n12", engine.SourceSpec{Kind: "family", Family: "forest", N: 12, Seed: 7, Count: 50}, false},
	{"family-gnp-n9", engine.SourceSpec{Kind: "family", Family: "gnp", N: 9, P: 0.3, Seed: 11, Count: 40}, false},
	// k-trees pin gen.KTree's RNG draw order, including k = 0, which still
	// draws Intn(1) per vertex from its single empty clique.
	{"family-ktree-n64-k3", engine.SourceSpec{Kind: "family", Family: "ktree", N: 64, K: 3, Seed: 13, Count: 20}, false},
	{"family-ktree-n9-k0", engine.SourceSpec{Kind: "family", Family: "ktree", N: 9, K: 0, Seed: 17, Count: 10}, false},
	// Explicit record bounds: the "file" splitter refuses to default
	// lo = hi = 0 (that would mean disk I/O inside the planner), so only a
	// bounded spec exercises the round-trip.
	{"file-fixed-n6", engine.SourceSpec{Kind: "file", N: 6, Lo: 0, Hi: 7}, true},
	{"canon-n6-full", engine.SourceSpec{Kind: "canon", N: 6}, true},
	{"canon-n7-window", engine.SourceSpec{Kind: "canon", N: 7, Lo: 10, Hi: 900}, true},
}

// fixedCorpusMasks is the committed content of the "file" fixture: a handful
// of n = 6 edge masks exercising empty, full, and mixed rows.
var fixedCorpusMasks = []uint64{0, 1, 0x7fff, 0x1234, 0x4321, 0x0f0f, 42}

const sourcesGoldenPath = "testdata/sources.json"

// sourcesFile is the committed golden shape: fixture name → stream digest.
type sourcesFile struct {
	Comment  string            `json:"comment"`
	Fixtures map[string]string `json:"fixtures"`
}

// materialize fills runtime-only spec fields (the temp corpus path).
func materialize(t *testing.T, spec engine.SourceSpec, dir string) engine.SourceSpec {
	t.Helper()
	if spec.Kind == "file" && spec.Path == "" {
		path := filepath.Join(dir, "fixed.corpus")
		if _, err := os.Stat(path); err != nil {
			if err := corpus.WriteFile(path, spec.N, fixedCorpusMasks); err != nil {
				t.Fatal(err)
			}
		}
		spec.Path = path
	}
	return spec
}

// streamDigest resolves and drains a spec, folding every graph's
// AdjacencyKey — and its weight, when the source is Weighted — into an
// FNV-1a digest. AdjacencyKey, not EdgeMask: generated families exceed the
// 64-bit mask, and hashing the key makes every conformance run a cross-check
// of that hot path too. The digest string leads with the graph count so a
// mismatch is legible.
func streamDigest(t *testing.T, spec engine.SourceSpec) string {
	t.Helper()
	src, err := engine.ResolveSource(spec)
	if err != nil {
		t.Fatalf("resolve %+v: %v", spec, err)
	}
	h := fnv.New64a()
	count := uint64(0)
	weighted, _ := src.(engine.Weighted)
	for g := src.Next(); g != nil; g = src.Next() {
		count++
		h.Write([]byte(g.AdjacencyKey()))
		if weighted != nil {
			var buf [8]byte
			w := weighted.Weight()
			for i := 0; i < 8; i++ {
				buf[i] = byte(w >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	if e, ok := src.(engine.Erring); ok {
		if err := e.Err(); err != nil {
			t.Fatalf("stream %+v: %v", spec, err)
		}
	}
	return fmt.Sprintf("count=%d fnv=%016x", count, h.Sum64())
}

// TestSourceKindCoverage pins the registry lineup in both directions: every
// registered source kind has at least one fixture, every fixture kind is
// registered, and every registered splitter has a split-marked fixture.
func TestSourceKindCoverage(t *testing.T) {
	fixtureKinds := map[string]bool{}
	splitKinds := map[string]bool{}
	for _, f := range sourceFixtures {
		fixtureKinds[f.spec.Kind] = true
		if f.split {
			splitKinds[f.spec.Kind] = true
		}
	}
	for _, kind := range engine.SourceKinds() {
		if !fixtureKinds[kind] {
			t.Errorf("source kind %q is registered but has no stream fixture (new kind? add one to sourceFixtures and commit its digest with -update)", kind)
		}
	}
	registered := map[string]bool{}
	for _, kind := range engine.SourceKinds() {
		registered[kind] = true
	}
	for kind := range fixtureKinds {
		if !registered[kind] {
			t.Errorf("fixture references source kind %q which is not registered (removed? renamed?)", kind)
		}
	}
	for _, kind := range engine.SourceSplitterKinds() {
		if !splitKinds[kind] {
			t.Errorf("source kind %q has a registered splitter but no split-marked fixture (add one so the round-trip is covered)", kind)
		}
	}
}

// TestSourceStreamGoldens pins every fixture's exact graph stream (order,
// masks, weights) to the committed digests.
func TestSourceStreamGoldens(t *testing.T) {
	dir := t.TempDir()
	got := &sourcesFile{
		Comment:  "stream digests for every source-kind fixture; regenerate with: go test ./internal/conformance -run TestSourceStreamGoldens -update",
		Fixtures: map[string]string{},
	}
	for _, f := range sourceFixtures {
		got.Fixtures[f.name] = streamDigest(t, materialize(t, f.spec, dir))
	}

	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sourcesGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d fixtures", sourcesGoldenPath, len(got.Fixtures))
		return
	}

	raw, err := os.ReadFile(sourcesGoldenPath)
	if err != nil {
		t.Fatalf("read sources golden (regenerate with -update): %v", err)
	}
	var want sourcesFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse sources golden: %v", err)
	}
	var names []string
	for name := range want.Fixtures {
		names = append(names, name)
	}
	for name := range got.Fixtures {
		if _, ok := want.Fixtures[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		w, wok := want.Fixtures[name]
		g, gok := got.Fixtures[name]
		switch {
		case !wok:
			t.Errorf("fixture %q has no committed digest (new fixture? commit it with -update)", name)
		case !gok:
			t.Errorf("golden lists fixture %q which no longer exists (regenerate with -update)", name)
		case w != g:
			t.Errorf("fixture %q streams %s, golden says %s (source behavior drifted)", name, g, w)
		}
	}
}

// TestSourceSplitterRoundTrip proves, for every split-marked fixture, that
// SplitShard's sub-specs concatenate back to the unsplit stream — the exact
// property `serve -parallel` and the fleet coordinator rely on. Sub-streams
// are drained in spec order, so the digest equality also pins the splitter's
// contiguous-ascending chunk shape.
func TestSourceSplitterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, f := range sourceFixtures {
		if !f.split {
			continue
		}
		spec := materialize(t, f.spec, dir)
		whole := streamDigest(t, spec)
		for _, parts := range []int{2, 3, 7} {
			shards := engine.SplitShard(engine.ShardSpec{Source: spec}, parts)
			if len(shards) < 2 && parts >= 2 {
				t.Errorf("%s: splitter declined to split into %d parts", f.name, parts)
				continue
			}
			h := fnv.New64a()
			count := uint64(0)
			for _, sh := range shards {
				src, err := engine.ResolveSource(sh.Source)
				if err != nil {
					t.Fatalf("%s: resolve sub-spec %+v: %v", f.name, sh.Source, err)
				}
				weighted, _ := src.(engine.Weighted)
				for g := src.Next(); g != nil; g = src.Next() {
					count++
					h.Write([]byte(g.AdjacencyKey()))
					if weighted != nil {
						var buf [8]byte
						w := weighted.Weight()
						for i := 0; i < 8; i++ {
							buf[i] = byte(w >> (8 * i))
						}
						h.Write(buf[:])
					}
				}
			}
			merged := fmt.Sprintf("count=%d fnv=%016x", count, h.Sum64())
			if merged != whole {
				t.Errorf("%s split into %d: concatenated sub-streams digest %s, whole stream %s", f.name, parts, merged, whole)
			}
		}
	}
}
