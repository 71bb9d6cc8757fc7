package lanes

import (
	"testing"

	"refereenet/internal/graph"
)

// FuzzLaneBlock fuzzes FillGray over random (n, lo, count) windows for every
// n up to graph.MaxSmallN:
//   - transpose → untranspose is the identity (slot j yields gray(lo+j)),
//   - the Gray fill (the suffix-XOR walk, or the aligned fast path when
//     lo % 64 == 0 and count == 64) equals a rebuild from scratch,
//   - FillMasks over the same Gray-consecutive masks equals FillGray (the
//     gather transpose is a generalization, not a different layout),
//   - FillTable over a table of Gray-consecutive masks that starts lo%64
//     masks before the window and runs up to 64 past it equals FillGray
//     (same alignment within a chunk as lo, and masks on both sides of the
//     window that must not leak into dead lanes),
//   - ragged tail masks leak no bits from dead lanes, in the edge words or
//     in any kernel output,
//   - every kernel agrees with the scalar graph.Small reference on every
//     live lane,
//   - the kernel constructors' one result is the per-lane view: Live is
//     the live mask, Accept ⊆ Live, GraphBits = n·width, Decided is set.
//
// rawN in 1..MaxSmallN and rawCount in 1..64 are n and count themselves.
func FuzzLaneBlock(f *testing.F) {
	f.Add(uint8(5), uint64(0), uint8(64))
	f.Add(uint8(9), uint64(1<<32-13), uint8(64))
	f.Add(uint8(9), uint64(1<<36-17), uint8(17))
	f.Add(uint8(1), uint64(0), uint8(1))
	f.Add(uint8(6), uint64(31337), uint8(7))
	// Aligned full blocks: n = 4's only one, an n = 9 block mid-space and
	// the one at 2^32.
	f.Add(uint8(4), uint64(0), uint8(64))
	f.Add(uint8(9), uint64(64*12345), uint8(64))
	f.Add(uint8(9), uint64(1<<32), uint8(64))
	f.Fuzz(func(t *testing.T, rawN uint8, rawLo uint64, rawCount uint8) {
		n := 1 + (int(rawN)+graph.MaxSmallN-1)%graph.MaxSmallN
		total := uint64(1) << uint(n*(n-1)/2)
		count := 1 + (int(rawCount)+Lanes-1)%Lanes
		if uint64(count) > total {
			count = int(total)
		}
		lo := rawLo % (total - uint64(count) + 1)

		var b Block
		b.FillGray(n, lo, count)

		want := naiveLanes(n, lo, count)
		live := b.LiveMask()
		for e := 0; e < b.Edges(); e++ {
			if b.EdgeLane(e) != want[e] {
				t.Fatalf("n=%d lo=%d count=%d: incremental lane %d = %#x, scratch rebuild %#x",
					n, lo, count, e, b.EdgeLane(e), want[e])
			}
			if b.EdgeLane(e)&^live != 0 {
				t.Fatalf("n=%d lo=%d count=%d: lane %d leaks dead-slot bits %#x",
					n, lo, count, e, b.EdgeLane(e)&^live)
			}
		}
		for j := 0; j < count; j++ {
			r := lo + uint64(j)
			if got, want := b.UntransposeMask(j), r^(r>>1); got != want {
				t.Fatalf("n=%d lo=%d count=%d: slot %d round-trips to %#x, want gray(%d)=%#x",
					n, lo, count, j, got, r, want)
			}
		}
		scalarCheck(t, &b)
		for _, k := range []struct {
			name string
			bits uint64
		}{
			{"triangles", b.Triangles()},
			{"squares", b.Squares()},
			{"connected", b.Connected()},
			{"forests", b.Forests()},
			{"diameter<=3", b.DiameterAtMost(3)},
			{"parity", b.DegreeParity(1)},
		} {
			if k.bits&^live != 0 {
				t.Fatalf("n=%d lo=%d count=%d: %s kernel sets dead-lane bits %#x",
					n, lo, count, k.name, k.bits&^live)
			}
		}

		// The gather fill over the same Gray-consecutive masks must rebuild
		// the identical block.
		masks := make([]uint64, count)
		for j := range masks {
			r := lo + uint64(j)
			masks[j] = r ^ (r >> 1)
		}
		var bm Block
		bm.FillMasks(n, masks)
		if bm.LiveMask() != live {
			t.Fatalf("n=%d lo=%d count=%d: gather live %#x, gray live %#x",
				n, lo, count, bm.LiveMask(), live)
		}
		for e := 0; e < b.Edges(); e++ {
			if bm.EdgeLane(e) != b.EdgeLane(e) {
				t.Fatalf("n=%d lo=%d count=%d: lane %d: gather %#x, gray %#x",
					n, lo, count, e, bm.EdgeLane(e), b.EdgeLane(e))
			}
		}

		// The table fill over a window of Gray-consecutive masks must rebuild
		// it too.
		pre := int(lo % Lanes)
		post := int(min(total-lo-uint64(count), Lanes))
		seq := make([]uint64, pre+count+post)
		for i := range seq {
			r := lo - uint64(pre) + uint64(i)
			seq[i] = r ^ (r >> 1)
		}
		table := NewMaskTable(n, seq)
		var bt Block
		bt.FillTable(&table, pre, count)
		if bt.LiveMask() != live || bt.Count() != count {
			t.Fatalf("n=%d lo=%d count=%d: table fill live %#x count %d, gray live %#x",
				n, lo, count, bt.LiveMask(), bt.Count(), live)
		}
		for e := 0; e < b.Edges(); e++ {
			if bt.EdgeLane(e) != b.EdgeLane(e) {
				t.Fatalf("n=%d lo=%d count=%d: lane %d: table fill %#x, gray %#x",
					n, lo, count, e, bt.EdgeLane(e), b.EdgeLane(e))
			}
		}

		// The kernel's one result: Live is the block's live mask, the
		// verdict word stays inside it, and GraphBits is n·width.
		var st BlockStats
		DecideKernel(func(n int) int { return n }, (*Block).Forests, true)(&b, &st)
		view := BlockStats{Live: live, Accept: b.Forests() & live, GraphBits: uint64(n * n), MaxBits: n, MaxN: n, Decided: true}
		if st.Accept&^st.Live != 0 || st != view {
			t.Fatalf("n=%d lo=%d count=%d: kernel result %+v, want %+v", n, lo, count, st, view)
		}
	})
}
