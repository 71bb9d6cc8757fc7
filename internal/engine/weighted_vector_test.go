package engine_test

// The weighted-vector differential suite: a WeightedBlockSource must fold
// byte-identical to the scalar weighted loop (Next/Weight pairs through
// account), which PR 7 already proved equal to the expanded labelled
// stream. Together the two equalities are the canon-vector contract:
// blocks of class representatives × per-lane orbit weights reconstitute
// exact labelled totals.

import (
	"math/rand"
	"testing"

	"refereenet/internal/collide"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
)

// weightedMaskSource is a WeightedBlockSource over explicit (mask, weight)
// pairs — the test double for canon.ClassSource, free to serve weights and
// masks the class table never would.
type weightedMaskSource struct {
	n       int
	masks   []uint64
	weights []uint64
	pos     int
	w       uint64
	wts     [lanes.Lanes]uint64
}

func (s *weightedMaskSource) Next() *graph.Graph {
	if s.pos >= len(s.masks) {
		return nil
	}
	g := graph.FromEdgeMask(s.n, s.masks[s.pos])
	s.w = s.weights[s.pos]
	s.pos++
	return g
}

func (s *weightedMaskSource) Weight() uint64 { return s.w }

func (s *weightedMaskSource) NextBlock(blk *lanes.Block) bool {
	if s.pos >= len(s.masks) {
		return false
	}
	count := len(s.masks) - s.pos
	if count > lanes.Lanes {
		count = lanes.Lanes
	}
	for j := 0; j < count; j++ {
		s.wts[j] = s.weights[s.pos+j]
	}
	for j := count; j < lanes.Lanes; j++ {
		s.wts[j] = 0
	}
	blk.FillMasks(s.n, s.masks[s.pos:s.pos+count])
	s.pos += count
	return true
}

func (s *weightedMaskSource) Weights(w *[lanes.Lanes]uint64) { *w = s.wts }

// randomWeighted builds a source of random n-vertex masks with random
// weights; a non-multiple-of-64 count exercises the ragged final block.
func randomWeighted(n, count int, seed int64, maxWeight int) *weightedMaskSource {
	rng := rand.New(rand.NewSource(seed))
	edges := uint(n * (n - 1) / 2)
	s := &weightedMaskSource{n: n, masks: make([]uint64, count), weights: make([]uint64, count)}
	for i := range s.masks {
		s.masks[i] = rng.Uint64() & (1<<edges - 1)
		s.weights[i] = 1 + uint64(rng.Intn(maxWeight))
	}
	return s
}

// TestWeightedBlocksMatchScalar runs the same weighted stream through the
// weighted-vector fold and the forced-scalar weighted loop for every
// vectorized protocol shape — width-only, width+verdict — demanding
// identical BatchStats.
func TestWeightedBlocksMatchScalar(t *testing.T) {
	const n, count = 7, 1000 // 1000 = 15 full blocks + a 40-lane tail
	for _, tc := range []struct {
		name   string
		decide bool
	}{
		{"degree", false},
		{"forest", false},
		{"oracle-triangle", true},
		{"oracle-conn", true},
		{"oracle-forest", true},
	} {
		run := func(noVector bool) engine.BatchStats {
			p, ok := engine.New(tc.name, engine.Config{N: n})
			if !ok {
				t.Fatalf("protocol %q not registered", tc.name)
			}
			b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: tc.decide, MaxN: n, NoVector: noVector})
			defer b.Close()
			if !noVector && !b.Vectorized() {
				t.Fatalf("%s: batch did not engage the vector path", tc.name)
			}
			return b.Run(randomWeighted(n, count, 99, 5040))
		}
		vec, scalar := run(false), run(true)
		if vec != scalar {
			t.Errorf("%s decide=%v: weighted vector %+v, weighted scalar %+v", tc.name, tc.decide, vec, scalar)
		}
	}
}

// TestWeightedBlocksAllOnesEqualUnweighted pins the degenerate case: with
// every weight 1, the weighted-block fold must equal a plain unweighted run
// over the same graphs.
func TestWeightedBlocksAllOnesEqualUnweighted(t *testing.T) {
	const n, count = 6, 500
	src := randomWeighted(n, count, 7, 1)
	graphs := make([]*graph.Graph, count)
	for i, m := range src.masks {
		graphs[i] = graph.FromEdgeMask(n, m)
	}
	p, ok := engine.New("oracle-conn", engine.Config{N: n})
	if !ok {
		t.Fatal("oracle-conn not registered")
	}
	want := engine.RunBatch(p, engine.NewSliceSource(graphs), engine.BatchOptions{Workers: 1, Decide: true})
	got := engine.RunBatch(p, src, engine.BatchOptions{Workers: 1, Decide: true})
	if got != want {
		t.Errorf("all-ones weighted blocks %+v, unweighted slice %+v", got, want)
	}
}

// onesGraySource decorates the gray block source with all-ones weights: the
// weighted-vector fold over it must reproduce the unweighted vector fold on
// the identical block stream, ragged tails included.
type onesGraySource struct{ *collide.GraySource }

func (s onesGraySource) Weight() uint64 { return 1 }

func (s onesGraySource) Weights(w *[lanes.Lanes]uint64) {
	for i := range w {
		w[i] = 1
	}
}

func TestWeightedGrayAllOnesEqualsUnweighted(t *testing.T) {
	const n = 6
	lo, hi := uint64(13), uint64(13+700) // unaligned, ragged tail
	p, ok := engine.New("oracle-forest", engine.Config{N: n})
	if !ok {
		t.Fatal("oracle-forest not registered")
	}
	b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: true, MaxN: n})
	defer b.Close()
	if !b.Vectorized() {
		t.Fatal("oracle-forest batch did not engage the vector path")
	}
	want := b.Run(collide.NewGraySourceRange(n, lo, hi))
	got := b.Run(onesGraySource{collide.NewGraySourceRange(n, lo, hi)})
	if got != want {
		t.Errorf("all-ones weighted gray %+v, unweighted gray %+v", got, want)
	}
}
