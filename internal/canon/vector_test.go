package canon_test

// The canon-vector differential suite: ClassSource's block stream must be
// the same classes (masks AND weights) as its scalar walk, and a weighted
// vector batch over it must fold byte-identical to the forced-scalar
// weighted loop — with zero steady-state allocations, since the quotient
// plane is the production hot path.

import (
	"testing"

	"refereenet/internal/canon"
	"refereenet/internal/engine"
	"refereenet/internal/lanes"
)

// TestClassSourceNextBlock checks the block stream against the scalar walk:
// the concatenated untransposed blocks are exactly the class masks Next
// yields, the per-slot weights are the class weights, dead-lane weight
// slots are zero, and mixing the two pull styles on one source is legal.
func TestClassSourceNextBlock(t *testing.T) {
	for _, tc := range []struct {
		n      int
		lo, hi uint64
	}{
		{6, 0, 0},    // all 156 classes: 2 full blocks + ragged tail
		{7, 10, 900}, // unaligned window
		{5, 0, 34},   // single partial block
		{4, 3, 4},    // single-class stream
	} {
		scalar, err := canon.NewClassSource(tc.n, tc.lo, tc.hi)
		if err != nil {
			t.Fatal(err)
		}
		var wantMasks, wantWeights []uint64
		for g := scalar.Next(); g != nil; g = scalar.Next() {
			wantMasks = append(wantMasks, scalar.Mask())
			wantWeights = append(wantWeights, scalar.Weight())
		}
		blocks, err := canon.NewClassSource(tc.n, tc.lo, tc.hi)
		if err != nil {
			t.Fatal(err)
		}
		var blk lanes.Block
		var wts [lanes.Lanes]uint64
		var gotMasks, gotWeights []uint64
		for blocks.NextBlock(&blk) {
			blocks.Weights(&wts)
			for j := 0; j < blk.Count(); j++ {
				gotMasks = append(gotMasks, blk.UntransposeMask(j))
				gotWeights = append(gotWeights, wts[j])
			}
			for j := blk.Count(); j < lanes.Lanes; j++ {
				if wts[j] != 0 {
					t.Fatalf("n=%d [%d,%d): dead slot %d carries weight %d", tc.n, tc.lo, tc.hi, j, wts[j])
				}
			}
		}
		if len(gotMasks) != len(wantMasks) {
			t.Fatalf("n=%d [%d,%d): %d classes via blocks, %d via Next", tc.n, tc.lo, tc.hi, len(gotMasks), len(wantMasks))
		}
		for i := range wantMasks {
			if gotMasks[i] != wantMasks[i] || gotWeights[i] != wantWeights[i] {
				t.Fatalf("n=%d [%d,%d) class %d: block (mask %#x, weight %d), scalar (mask %#x, weight %d)",
					tc.n, tc.lo, tc.hi, i, gotMasks[i], gotWeights[i], wantMasks[i], wantWeights[i])
			}
		}
		if blocks.NextBlock(&blk) {
			t.Fatalf("n=%d [%d,%d): NextBlock returned a block after exhaustion", tc.n, tc.lo, tc.hi)
		}
	}

	// Mixing pull styles: blocks then scalar steps must continue the same
	// class stream — the scalar toggle state survives block pulls.
	ref, err := canon.NewClassSource(6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for g := ref.Next(); g != nil; g = ref.Next() {
		want = append(want, ref.Mask())
	}
	mixed, err := canon.NewClassSource(6, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	var blk lanes.Block
	for i := 0; i < 20; i++ { // scalar warm-up so s.g exists before blocks
		if g := mixed.Next(); g == nil {
			break
		}
		got = append(got, mixed.Mask())
	}
	for mixed.NextBlock(&blk) {
		for j := 0; j < blk.Count(); j++ {
			got = append(got, blk.UntransposeMask(j))
		}
		for k := 0; k < 5; k++ {
			g := mixed.Next()
			if g == nil {
				break
			}
			if g.EdgeMask() != mixed.Mask() {
				t.Fatalf("mixed stream: toggled graph mask %#x disagrees with Mask() %#x", g.EdgeMask(), mixed.Mask())
			}
			got = append(got, mixed.Mask())
		}
	}
	if len(got) != len(want) {
		t.Fatalf("mixed stream yielded %d classes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed stream class %d: mask %#x, want %#x", i, got[i], want[i])
		}
	}
}

// diam3Labelled counts the labelled graphs of diameter at most 3. The n ≤ 6
// values match internal/engine's brute-force truth test; n = 7 and 8 come
// from a plain edge-mask enumeration with a bitmask BFS per graph.
var diam3Labelled = map[int]uint64{4: 38, 5: 668, 6: 23464, 7: 1641976, 8: 226418312}

// TestCanonVectorMatchesScalar runs full class tables through the
// weighted-vector fold and the forced-scalar weighted loop, demanding
// identical BatchStats and the known labelled totals. The oracle-diam3 row
// reaches n = 8 even under -short: its scalar weighted pass over the
// 12,346 classes costs tens of milliseconds.
func TestCanonVectorMatchesScalar(t *testing.T) {
	top := 7
	if testing.Short() {
		top = 6
	}
	for _, tc := range []struct {
		protocol string
		oeis     map[int]uint64
		top      int
	}{
		{"oracle-conn", a001187, top},
		{"oracle-forest", a001858, top},
		{"oracle-diam3", diam3Labelled, 8},
	} {
		for n := 4; n <= tc.top; n++ {
			run := func(noVector bool) engine.BatchStats {
				p, ok := engine.New(tc.protocol, engine.Config{N: n})
				if !ok {
					t.Fatalf("protocol %q not registered", tc.protocol)
				}
				b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: true, MaxN: n, NoVector: noVector})
				defer b.Close()
				if !noVector && !b.Vectorized() {
					t.Fatalf("%s: batch did not engage the vector path", tc.protocol)
				}
				src, err := canon.NewClassSource(n, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				return b.Run(src)
			}
			vec, scalar := run(false), run(true)
			if vec != scalar {
				t.Errorf("%s n=%d: canon vector %+v, canon scalar %+v", tc.protocol, n, vec, scalar)
			}
			if want := tc.oeis[n]; vec.Accepted != want {
				t.Errorf("%s n=%d: accepted %d, want %d", tc.protocol, n, vec.Accepted, want)
			}
			if want := uint64(1) << uint(n*(n-1)/2); vec.Graphs != want {
				t.Errorf("%s n=%d: %d labelled graphs reconstituted, want 2^C(n,2) = %d", tc.protocol, n, vec.Graphs, want)
			}
		}
	}
}

// TestCanonVectorSteadyStateAllocs pins the weighted-vector hot path at
// zero allocations per run once batch and source exist: Reset rewinds the
// class cursor without touching the toggle state, the block and weight
// scratch live in the batch, and FillTable copies from the cached table.
func TestCanonVectorSteadyStateAllocs(t *testing.T) {
	p, ok := engine.New("oracle-conn", engine.Config{N: 7})
	if !ok {
		t.Fatal("oracle-conn not registered")
	}
	b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: true, MaxN: 7})
	defer b.Close()
	if !b.Vectorized() {
		t.Fatal("oracle-conn batch did not engage the vector path")
	}
	src, err := canon.NewClassSource(7, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Run(src)
	avg := testing.AllocsPerRun(10, func() {
		src.Reset()
		if got := b.Run(src); got != want {
			t.Fatalf("rewound run %+v, first run %+v", got, want)
		}
	})
	if avg != 0 {
		t.Errorf("canon-vector path allocates %.1f per run, want 0", avg)
	}
}
