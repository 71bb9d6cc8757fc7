package lanes

import (
	"math/rand"
	"testing"

	"refereenet/internal/graph"
)

func gray(r uint64) uint64 { return r ^ (r >> 1) }

// naiveLanes builds the transpose the obvious way — one bit insertion per
// (edge, slot) pair — as the reference for FillGray's incremental walk.
func naiveLanes(n int, lo uint64, count int) [maxEdges]uint64 {
	var want [maxEdges]uint64
	edges := n * (n - 1) / 2
	for j := 0; j < count; j++ {
		mask := gray(lo + uint64(j))
		for e := 0; e < edges; e++ {
			want[e] |= (mask >> uint(e) & 1) << uint(j)
		}
	}
	return want
}

func checkBlock(t *testing.T, b *Block, n int, lo uint64, count int) {
	t.Helper()
	want := naiveLanes(n, lo, count)
	for e := 0; e < b.Edges(); e++ {
		if b.EdgeLane(e) != want[e] {
			t.Fatalf("n=%d lo=%d count=%d: lane %d = %#x, naive build says %#x",
				n, lo, count, e, b.EdgeLane(e), want[e])
		}
	}
	// Dead lanes must be zero in every edge word: ragged tails leak nothing.
	for e := 0; e < b.Edges(); e++ {
		if b.EdgeLane(e)&^b.LiveMask() != 0 {
			t.Fatalf("n=%d lo=%d count=%d: lane %d has dead-slot bits %#x",
				n, lo, count, e, b.EdgeLane(e)&^b.LiveMask())
		}
	}
	for j := 0; j < count; j++ {
		if got, want := b.UntransposeMask(j), gray(lo+uint64(j)); got != want {
			t.Fatalf("n=%d lo=%d count=%d: slot %d untransposes to %#x, rank %d grays to %#x",
				n, lo, count, j, got, lo+uint64(j), want)
		}
	}
}

// TestFillGrayExhaustive walks every aligned block and a sweep of ragged
// windows for n ≤ 5, checking transpose == naive build and untranspose ==
// Gray code of the rank.
func TestFillGrayExhaustive(t *testing.T) {
	var b Block
	for n := 1; n <= 5; n++ {
		total := uint64(1) << uint(n*(n-1)/2)
		for lo := uint64(0); lo < total; lo += Lanes {
			count := Lanes
			if rem := total - lo; rem < uint64(count) {
				count = int(rem)
			}
			b.FillGray(n, lo, count)
			checkBlock(t, &b, n, lo, count)
		}
		// Ragged, unaligned windows.
		rng := rand.New(rand.NewSource(int64(n) * 7919))
		for trial := 0; trial < 50; trial++ {
			count := 1 + rng.Intn(Lanes)
			if uint64(count) > total {
				count = int(total)
			}
			lo := uint64(rng.Int63n(int64(total - uint64(count) + 1)))
			b.FillGray(n, lo, count)
			checkBlock(t, &b, n, lo, count)
		}
	}
}

// TestFillGrayWindows spot-checks large-n windows, including the 2^32
// straddle that exercises high trailing-zero counts in the Gray walk.
func TestFillGrayWindows(t *testing.T) {
	var b Block
	for _, tc := range []struct {
		n     int
		lo    uint64
		count int
	}{
		{9, 0, 64},
		{9, 1<<32 - 32, 64}, // straddles 2^32: rank 2^32 flips edge bit 32
		{9, 1<<36 - 64, 64}, // top of the n = 9 plane
		{9, 1<<36 - 17, 17}, // ragged tail at the very top
		{11, 1<<55 - 64, 64},
		{7, 123457, 64},
	} {
		b.FillGray(tc.n, tc.lo, tc.count)
		checkBlock(t, &b, tc.n, tc.lo, tc.count)
	}
}

// TestFillGrayReuse drives one Block across changing n and ranges: the
// per-n tables and leftover lane words from earlier fills must never bleed
// into later ones.
func TestFillGrayReuse(t *testing.T) {
	var b Block
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(9)
		total := uint64(1) << uint(n*(n-1)/2)
		count := 1 + rng.Intn(Lanes)
		if uint64(count) > total {
			count = int(total)
		}
		lo := uint64(rng.Int63n(int64(total - uint64(count) + 1)))
		b.FillGray(n, lo, count)
		checkBlock(t, &b, n, lo, count)
	}
}

// naiveGather builds the transpose of arbitrary masks the obvious way —
// one bit insertion per (edge, slot) pair — as the reference for
// FillMasks's word-level bit-matrix transpose.
func naiveGather(n int, masks []uint64) [maxEdges]uint64 {
	var want [maxEdges]uint64
	edges := n * (n - 1) / 2
	for j, mask := range masks {
		for e := 0; e < edges; e++ {
			want[e] |= (mask >> uint(e) & 1) << uint(j)
		}
	}
	return want
}

func checkGather(t *testing.T, b *Block, n int, masks []uint64) {
	t.Helper()
	want := naiveGather(n, masks)
	for e := 0; e < b.Edges(); e++ {
		if b.EdgeLane(e) != want[e] {
			t.Fatalf("n=%d count=%d: lane %d = %#x, naive gather says %#x",
				n, len(masks), e, b.EdgeLane(e), want[e])
		}
		if b.EdgeLane(e)&^b.LiveMask() != 0 {
			t.Fatalf("n=%d count=%d: lane %d has dead-slot bits %#x",
				n, len(masks), e, b.EdgeLane(e)&^b.LiveMask())
		}
	}
	for j, mask := range masks {
		if got := b.UntransposeMask(j); got != mask {
			t.Fatalf("n=%d count=%d: slot %d untransposes to %#x, gathered mask was %#x",
				n, len(masks), j, got, mask)
		}
	}
}

// TestFillMasksRandom drives the gather fill with random masks across every
// n and a sweep of ragged counts, against the naive per-bit build and the
// untranspose round-trip.
func TestFillMasksRandom(t *testing.T) {
	var b Block
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(graph.MaxSmallN)
		edges := uint(n * (n - 1) / 2)
		count := 1 + rng.Intn(Lanes)
		masks := make([]uint64, count)
		for j := range masks {
			masks[j] = rng.Uint64()
			if edges < 64 {
				masks[j] &= 1<<edges - 1
			}
		}
		b.FillMasks(n, masks)
		if b.N() != n || b.Count() != count || b.Lo() != 0 {
			t.Fatalf("trial %d: block reports n=%d count=%d lo=%d, filled n=%d count=%d",
				trial, b.N(), b.Count(), b.Lo(), n, count)
		}
		checkGather(t, &b, n, masks)
	}
}

// TestFillMasksEqualsFillGray feeds FillMasks the Gray codes of consecutive
// ranks: the two fills must produce identical blocks lane for lane — the
// gather is a generalization, not a different transpose.
func TestFillMasksEqualsFillGray(t *testing.T) {
	var bg, bm Block
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		total := uint64(1) << uint(n*(n-1)/2)
		count := 1 + rng.Intn(Lanes)
		if uint64(count) > total {
			count = int(total)
		}
		lo := uint64(rng.Int63n(int64(total - uint64(count) + 1)))
		bg.FillGray(n, lo, count)
		masks := make([]uint64, count)
		for j := range masks {
			masks[j] = gray(lo + uint64(j))
		}
		bm.FillMasks(n, masks)
		if bg.LiveMask() != bm.LiveMask() {
			t.Fatalf("n=%d lo=%d count=%d: live masks differ: gray %#x, gather %#x",
				n, lo, count, bg.LiveMask(), bm.LiveMask())
		}
		for e := 0; e < bg.Edges(); e++ {
			if bg.EdgeLane(e) != bm.EdgeLane(e) {
				t.Fatalf("n=%d lo=%d count=%d: lane %d: gray fill %#x, gather fill %#x",
					n, lo, count, e, bg.EdgeLane(e), bm.EdgeLane(e))
			}
		}
	}
}

// expectPanic fails the test unless f panics.
func expectPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// TestFillGrayPanics pins the argument validation, including blocks wider
// than the whole rank space of a small n: count > 2^C(n,2) must not wrap the
// range check round to a pass.
func TestFillGrayPanics(t *testing.T) {
	var b Block
	expectPanic(t, "n=0", func() { b.FillGray(0, 0, 1) })
	expectPanic(t, "count=0", func() { b.FillGray(5, 0, 0) })
	expectPanic(t, "count > 64", func() { b.FillGray(5, 0, Lanes+1) })
	expectPanic(t, "n=3, 64 of 8 ranks", func() { b.FillGray(3, 0, 64) })
	expectPanic(t, "n=2, 3 of 2 ranks", func() { b.FillGray(2, 0, 3) })
	expectPanic(t, "n=4, tail past 2^6", func() { b.FillGray(4, 60, 5) })
}

// TestFillMasksPanics pins the argument validation: out-of-range n or
// count, and masks with bits at or beyond C(n,2).
func TestFillMasksPanics(t *testing.T) {
	var b Block
	expectPanic(t, "n=0", func() { b.FillMasks(0, []uint64{0}) })
	expectPanic(t, "n too big", func() { b.FillMasks(graph.MaxSmallN+1, []uint64{0}) })
	expectPanic(t, "empty masks", func() { b.FillMasks(5, nil) })
	expectPanic(t, "too many masks", func() { b.FillMasks(5, make([]uint64, Lanes+1)) })
	expectPanic(t, "mask too wide", func() { b.FillMasks(5, []uint64{1 << 10}) }) // C(5,2)=10
}

// TestPerLaneViewConsistency pins the kernel constructors' one result, the
// per-lane view the engine's fold weighs: Live is the block's live mask,
// Accept ⊆ Live is the accept predicate's word, GraphBits = n·width(n), and
// Decided says whether a verdict was computed. A kernel overwrites its
// result, so junk left by the previous block must not survive.
func TestPerLaneViewConsistency(t *testing.T) {
	width := func(n int) int { return n }
	junk := BlockStats{Live: ^uint64(0), Accept: ^uint64(0), GraphBits: 999, MaxBits: 999, MaxN: 999, Decided: true}
	decide := DecideKernel(width, (*Block).Forests, true)
	constant := ConstWidthKernel(width)
	var b Block
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		total := uint64(1) << uint(n*(n-1)/2)
		count := 1 + rng.Intn(Lanes)
		if uint64(count) > total {
			count = int(total)
		}
		lo := uint64(rng.Int63n(int64(total - uint64(count) + 1)))
		b.FillGray(n, lo, count)
		live := b.LiveMask()
		wantView := BlockStats{Live: live, GraphBits: uint64(n * n), MaxBits: n, MaxN: n}

		st := junk
		decide(&b, &st)
		if st.Accept&^st.Live != 0 {
			t.Fatalf("n=%d lo=%d count=%d: Accept %#x ⊄ Live %#x", n, lo, count, st.Accept, st.Live)
		}
		want := wantView
		want.Accept, want.Decided = b.Forests()&live, true
		if st != want {
			t.Fatalf("n=%d lo=%d count=%d: decide kernel %+v, want %+v", n, lo, count, st, want)
		}

		// The width-only constructor reports the same view, minus the verdict.
		st = junk
		constant(&b, &st)
		if st != wantView {
			t.Fatalf("n=%d lo=%d count=%d: const-width kernel %+v, want %+v", n, lo, count, st, wantView)
		}
	}
}

// TestCounterAddMasked cross-checks the ripple-carry adder against 64
// independent scalar accumulators under random masked adds.
func TestCounterAddMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c Counter
	var want [Lanes]int
	for round := 0; round < 200; round++ {
		v := uint64(rng.Intn(12))
		m := rng.Uint64()
		// Keep every lane below the plane capacity.
		for j := 0; j < Lanes; j++ {
			if m>>uint(j)&1 != 0 && want[j]+int(v) >= 1<<CounterPlanes {
				m &^= 1 << uint(j)
			}
		}
		c.AddMasked(v, m)
		for j := 0; j < Lanes; j++ {
			if m>>uint(j)&1 != 0 {
				want[j] += int(v)
			}
			if got := c.Value(j); got != want[j] {
				t.Fatalf("round %d lane %d: counter holds %d, scalar model %d", round, j, got, want[j])
			}
		}
	}
}

// TestCounterModCircuits checks Mod3/Mod7 against scalar % for every value
// a counter can hold, one value per lane to exercise cross-lane isolation.
func TestCounterModCircuits(t *testing.T) {
	for base := 0; base < 1<<CounterPlanes; base += Lanes {
		var c Counter
		for j := 0; j < Lanes; j++ {
			v := (base + j) % (1 << CounterPlanes)
			c.AddMasked(uint64(v), 1<<uint(j))
		}
		r0, r1 := c.Mod3()
		s0, s1, s2 := c.Mod7()
		for j := 0; j < Lanes; j++ {
			v := (base + j) % (1 << CounterPlanes)
			if got := int(r0>>uint(j)&1) + 2*int(r1>>uint(j)&1); got != v%3 {
				t.Fatalf("value %d: mod3 circuit says %d", v, got)
			}
			got7 := int(s0>>uint(j)&1) + 2*int(s1>>uint(j)&1) + 4*int(s2>>uint(j)&1)
			if got7 != v%7 {
				t.Fatalf("value %d: mod7 circuit says %d", v, got7)
			}
		}
	}
}

// scalarCheck compares every per-node and accept kernel against the scalar
// graph.Small reference for each live lane of b.
func scalarCheck(t *testing.T, b *Block) {
	t.Helper()
	n := b.N()
	tri, sq, conn, fst := b.Triangles(), b.Squares(), b.Connected(), b.Forests()
	for _, w := range []struct {
		name string
		bits uint64
	}{{"triangles", tri}, {"squares", sq}, {"connected", conn}, {"forests", fst}} {
		if w.bits&^b.LiveMask() != 0 {
			t.Fatalf("%s kernel sets dead-lane bits %#x", w.name, w.bits&^b.LiveMask())
		}
	}
	var deg, sum [graph.MaxSmallN + 1]Counter
	par := [graph.MaxSmallN + 1]uint64{}
	for v := 1; v <= n; v++ {
		b.DegreeCounts(v, &deg[v])
		b.NeighborSums(v, &sum[v])
		par[v] = b.DegreeParity(v)
	}
	var nbrs []int
	for j := 0; j < b.Count(); j++ {
		g := graph.SmallFromMask(n, b.UntransposeMask(j))
		for v := 1; v <= n; v++ {
			d := g.Degree(v)
			if got := deg[v].Value(j); got != d {
				t.Fatalf("slot %d vertex %d: lane degree %d, scalar %d", j, v, got, d)
			}
			s := 0
			nbrs = g.AppendNeighbors(v, nbrs[:0])
			for _, u := range nbrs {
				s += u
			}
			if got := sum[v].Value(j); got != s {
				t.Fatalf("slot %d vertex %d: lane neighbor sum %d, scalar %d", j, v, got, s)
			}
			if got := int(par[v] >> uint(j) & 1); got != d&1 {
				t.Fatalf("slot %d vertex %d: lane parity %d, scalar %d", j, v, got, d&1)
			}
		}
		lane := uint64(1) << uint(j)
		if got, want := tri&lane != 0, g.HasTriangle(); got != want {
			t.Fatalf("slot %d (mask %#x): lane triangle %v, scalar %v", j, g.EdgeMask(), got, want)
		}
		if got, want := sq&lane != 0, g.HasSquare(); got != want {
			t.Fatalf("slot %d (mask %#x): lane square %v, scalar %v", j, g.EdgeMask(), got, want)
		}
		if got, want := conn&lane != 0, g.IsConnected(); got != want {
			t.Fatalf("slot %d (mask %#x): lane connected %v, scalar %v", j, g.EdgeMask(), got, want)
		}
		if got, want := fst&lane != 0, g.IsForest(); got != want {
			t.Fatalf("slot %d (mask %#x): lane forest %v, scalar %v", j, g.EdgeMask(), got, want)
		}
	}
}

// TestKernelsExhaustiveSmall runs the full differential check over every
// labelled graph for n ≤ 6 (exhaustive up to 2^15 ranks), aligned blocks.
func TestKernelsExhaustiveSmall(t *testing.T) {
	var b Block
	for n := 1; n <= 6; n++ {
		total := uint64(1) << uint(n*(n-1)/2)
		for lo := uint64(0); lo < total; lo += Lanes {
			count := Lanes
			if rem := total - lo; rem < uint64(count) {
				count = int(rem)
			}
			b.FillGray(n, lo, count)
			scalarCheck(t, &b)
		}
	}
}

// TestKernelsWindowsN9 runs the differential check over random n = 9
// windows, including one straddling rank 2^32.
func TestKernelsWindowsN9(t *testing.T) {
	window := 1 << 12
	if testing.Short() {
		window = 1 << 8
	}
	var b Block
	rng := rand.New(rand.NewSource(9))
	los := []uint64{1<<32 - uint64(window)/2, 0, 1<<36 - uint64(window)}
	for i := 0; i < 4; i++ {
		los = append(los, uint64(rng.Int63n(1<<36-int64(window))))
	}
	for _, lo := range los {
		for off := 0; off < window; off += Lanes {
			b.FillGray(9, lo+uint64(off), Lanes)
			scalarCheck(t, &b)
		}
	}
}

// TestKernelsFillMasksLargeN runs the differential check at n = 10 and 11,
// which only the gather fill reaches (canon and corpus sources). Besides
// random masks it packs the dense and boundary graphs that stress the
// forest kernel's edge-count prefilter: the complete graph (45 and 55
// edges, far past its 4-plane counter), the complete graph minus each edge,
// random spanning trees (exactly n−1 edges, forests), a cycle on n−1
// vertices beside an isolated vertex (n−1 edges, not a forest) and random
// unicyclic spanning graphs (exactly n edges).
func TestKernelsFillMasksLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(1011))
	var b Block
	for n := 10; n <= graph.MaxSmallN; n++ {
		edges := uint(n * (n - 1) / 2)
		full := uint64(1)<<edges - 1
		bit := func(u, v int) uint64 { return 1 << uint(graph.EdgeIndex(n, u, v)) }
		// tree joins each vertex of a random order to a random earlier one.
		tree := func() uint64 {
			order := rng.Perm(n)
			var m uint64
			for i := 1; i < n; i++ {
				m |= bit(order[i]+1, order[rng.Intn(i)]+1)
			}
			return m
		}
		var masks []uint64
		masks = append(masks, full)
		for e := uint(0); e < edges; e++ {
			masks = append(masks, full&^(1<<e))
		}
		for i := 0; i < 64; i++ {
			masks = append(masks, tree())
		}
		for i := 0; i < 64; i++ {
			order := rng.Perm(n)
			var m uint64
			for k := 0; k < n-1; k++ {
				m |= bit(order[k]+1, order[(k+1)%(n-1)]+1)
			}
			masks = append(masks, m)
		}
		for i := 0; i < 64; i++ {
			m := tree()
			for {
				extra := uint64(1) << uint(rng.Intn(int(edges)))
				if m&extra == 0 {
					masks = append(masks, m|extra)
					break
				}
			}
		}
		for i := 0; i < 256; i++ {
			m := rng.Uint64() & full
			switch i % 4 {
			case 1:
				m &= rng.Uint64() & rng.Uint64() // sparse
			case 2:
				m |= rng.Uint64() & full // dense
			}
			masks = append(masks, m)
		}
		for lo := 0; lo < len(masks); lo += Lanes {
			hi := lo + Lanes
			if hi > len(masks) {
				hi = len(masks)
			}
			b.FillMasks(n, masks[lo:hi])
			scalarCheck(t, &b)
		}
	}
}
