package gen

import (
	"fmt"
	"math"
	"math/rand"

	"refereenet/internal/engine"
	"refereenet/internal/graph"
)

// FamilySource streams a fixed number of graphs drawn from one ByName
// family — the corpus-shaped counterpart of the Gray-code rank range. The
// stream is a deterministic function of (seed, family, n, k, p, count), so a
// spec that names it reproduces the same corpus in any process; sweeps split
// a family workload by giving each shard its own count and a distinct seed.
type FamilySource struct {
	seed   int64
	rng    *rand.Rand
	family string
	n, k   int
	p      float64
	left   int
}

// NewFamilySource validates the spec and returns a source of count graphs
// from ByName(family, n, k, p), drawn from a stream seeded with seed. The
// family constructors panic on parameter combinations they reject (k-trees
// need n ≥ k+1, projective planes a prime order, ...); since specs cross
// process boundaries, construction probes one graph and converts any such
// panic into an error — the resolver contract — rather than letting it kill
// a sweep worker mid-stream.
func NewFamilySource(seed int64, family string, n, k int, p float64, count int) (*FamilySource, error) {
	known := false
	for _, name := range FamilyNames() {
		if name == family {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("gen: unknown family %q (known: %v)", family, FamilyNames())
	}
	if count < 0 {
		return nil, fmt.Errorf("gen: negative graph count %d", count)
	}
	if n < 1 {
		return nil, fmt.Errorf("gen: family source needs n ≥ 1, got %d", n)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: edge probability p=%g outside [0, 1]", p)
	}
	if err := probeFamily(seed, family, n, k, p); err != nil {
		return nil, err
	}
	return &FamilySource{seed: seed, family: family, n: n, k: k, p: p, left: count}, nil
}

// probeFamily builds (and discards) one graph with a throwaway RNG so that
// parameter combinations the constructors reject surface as errors at
// resolve time. The real stream starts from a fresh NewRand(seed), so the
// probe does not perturb determinism.
func probeFamily(seed int64, family string, n, k int, p float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gen: family %q rejects n=%d k=%d p=%g: %v", family, n, k, p, r)
		}
	}()
	_, err = ByName(NewRand(seed), family, n, k, p)
	return err
}

// Next implements engine.Source.
func (s *FamilySource) Next() *graph.Graph {
	if s.left <= 0 {
		return nil
	}
	s.left--
	if s.rng == nil {
		s.rng = NewRand(s.seed)
	}
	g, err := ByName(s.rng, s.family, s.n, s.k, s.p)
	if err != nil {
		// The family was validated at construction; an error here is a
		// programming bug, not a malformed spec.
		panic(err)
	}
	return g
}

func init() {
	// The generated-family corpus as a plannable source: spec {kind:
	// "family", family, n, k, p, seed, count}. Registered here (not in
	// engine) so the resolver registry mirrors the protocol registry: each
	// package that owns constructors contributes its own kinds.
	engine.RegisterSource("family", func(spec engine.SourceSpec) (engine.Source, error) {
		return NewFamilySource(spec.Seed, spec.Family, spec.N, spec.K, spec.P, spec.Count)
	})
}
