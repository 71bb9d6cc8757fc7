package collide

import (
	"testing"

	"refereenet/internal/lanes"
)

// TestGraySourceNextBlock checks the block stream against the scalar walk:
// the concatenated untransposed blocks are exactly the masks Next yields,
// ragged tails included, and Mask tracks the last served rank. Only the
// head block may start off a 64-rank boundary: it ends at the first
// boundary (or at hi), and every later block but the tail is a full
// aligned one — the shape FillGray's fast path takes.
func TestGraySourceNextBlock(t *testing.T) {
	for _, tc := range []struct {
		n      int
		lo, hi uint64
	}{
		{5, 0, 1 << 10},
		{6, 100, 612},  // unaligned, ragged tail
		{6, 7, 7 + 64}, // 64 unaligned ranks: a head block and a tail
		{6, 70, 100},   // the whole range inside the head block
		{4, 0, 1},      // single-graph stream
		{7, 1<<21 - 100, 1 << 21},
		{9, 1<<35 + 13, 1<<35 + 13 + 1000},
	} {
		scalar := NewGraySourceRange(tc.n, tc.lo, tc.hi)
		var want []uint64
		for g := scalar.Next(); g != nil; g = scalar.Next() {
			want = append(want, scalar.Mask())
		}
		blocks := NewGraySourceRange(tc.n, tc.lo, tc.hi)
		var blk lanes.Block
		var got []uint64
		for first := true; blocks.NextBlock(&blk); first = false {
			end := blk.Lo() + uint64(blk.Count())
			switch {
			case first && blk.Lo() != tc.lo:
				t.Fatalf("n=%d [%d,%d): head block starts at %d", tc.n, tc.lo, tc.hi, blk.Lo())
			case first && end != tc.hi && end%lanes.Lanes != 0:
				t.Fatalf("n=%d [%d,%d): head block ends at %d, off a 64-rank boundary", tc.n, tc.lo, tc.hi, end)
			case !first && blk.Lo()%lanes.Lanes != 0:
				t.Fatalf("n=%d [%d,%d): block after the head starts at %d, unaligned", tc.n, tc.lo, tc.hi, blk.Lo())
			case !first && end != tc.hi && blk.Count() != lanes.Lanes:
				t.Fatalf("n=%d [%d,%d): non-tail block at %d holds %d ranks", tc.n, tc.lo, tc.hi, blk.Lo(), blk.Count())
			}
			for j := 0; j < blk.Count(); j++ {
				got = append(got, blk.UntransposeMask(j))
			}
			if last := got[len(got)-1]; blocks.Mask() != last {
				t.Fatalf("n=%d [%d,%d): Mask()=%#x after block ending in %#x", tc.n, tc.lo, tc.hi, blocks.Mask(), last)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d [%d,%d): %d graphs via blocks, %d via Next", tc.n, tc.lo, tc.hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d [%d,%d) rank %d: block mask %#x, scalar mask %#x",
					tc.n, tc.lo, tc.hi, tc.lo+uint64(i), got[i], want[i])
			}
		}
		if blocks.NextBlock(&blk) {
			t.Fatalf("n=%d [%d,%d): NextBlock returned a block after exhaustion", tc.n, tc.lo, tc.hi)
		}
	}
}

// TestGraySourceMixedNextAndBlocks interleaves the two pull styles on one
// source: the scalar cursor must re-seed at the rank after the last block.
func TestGraySourceMixedNextAndBlocks(t *testing.T) {
	n, lo, hi := 6, uint64(10), uint64(10+200)
	ref := NewGraySourceRange(n, lo, hi)
	var want []uint64
	for g := ref.Next(); g != nil; g = ref.Next() {
		want = append(want, ref.Mask())
	}
	src := NewGraySourceRange(n, lo, hi)
	var blk lanes.Block
	var got []uint64
	phase := 0
	for {
		if phase%2 == 0 {
			if !src.NextBlock(&blk) {
				break
			}
			for j := 0; j < blk.Count(); j++ {
				got = append(got, blk.UntransposeMask(j))
			}
		} else {
			// A handful of scalar steps between blocks.
			stop := false
			for k := 0; k < 10; k++ {
				g := src.Next()
				if g == nil {
					stop = true
					break
				}
				if g.EdgeMask() != src.Mask() {
					t.Fatalf("re-seeded graph mask %#x disagrees with Mask() %#x", g.EdgeMask(), src.Mask())
				}
				got = append(got, src.Mask())
			}
			if stop {
				break
			}
		}
		phase++
	}
	if len(got) != len(want) {
		t.Fatalf("mixed stream yielded %d graphs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed stream rank %d: mask %#x, want %#x", lo+uint64(i), got[i], want[i])
		}
	}
}
