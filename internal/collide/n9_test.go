package collide

import (
	"os"
	"testing"

	"refereenet/internal/graph"
)

// The n = 9 ceiling: C(9,2) = 36 edge bits, ranks spanning [0, 2^36) —
// the first size where ranks exceed 32 bits, so every test here works on
// windows placed ABOVE 2^32 to exercise the word-width arithmetic the n ≤ 8
// spaces never touch. The full 6.9·10¹⁰-graph count is a fleet workload
// (see ROADMAP), not a test: only the env-gated cross-check at the bottom
// runs it.

const n9Space = uint64(1) << 36

// TestGrayRangeMechanicsN9 walks windows of the n = 9 rank space — the low
// edge, a window straddling 2^35, one straddling 2^32 (where a 32-bit rank
// would wrap), and the tail — checking rank→mask agreement at every step.
func TestGrayRangeMechanicsN9(t *testing.T) {
	windows := [][2]uint64{
		{0, 4096},
		{1<<32 - 1024, 1<<32 + 1024},
		{1<<35 - 1024, 1<<35 + 1024},
		{n9Space - 4096, n9Space},
	}
	for _, w := range windows {
		var visited uint64
		err := EnumerateGraphsGrayRange(9, w[0], w[1], func(mask uint64, s graph.Small) bool {
			rank := w[0] + visited
			if want := rank ^ (rank >> 1); mask != want {
				t.Fatalf("rank %d: mask %d, want gray %d", rank, mask, want)
			}
			if got := s.EdgeMask(); got != mask {
				t.Fatalf("rank %d: Small mask %d != reported %d", rank, got, mask)
			}
			visited++
			return true
		})
		if err != nil {
			t.Fatalf("window %v: %v", w, err)
		}
		if visited != w[1]-w[0] {
			t.Fatalf("window %v visited %d graphs", w, visited)
		}
	}
}

// TestCountRangeN9SlicesMerge pins the fleet-splitting contract at 36 bits:
// a high window counted in one piece must equal the merge of its disjoint
// sub-slices, including slices whose bounds sit just off a 2^32 word edge.
func TestCountRangeN9SlicesMerge(t *testing.T) {
	lo, hi := uint64(1<<32-5000), uint64(1<<32+15000)
	whole, err := CountRange(9, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if whole.All != hi-lo {
		t.Fatalf("window counted %d graphs, want %d", whole.All, hi-lo)
	}
	bounds := []uint64{lo, lo + 1, 1 << 32, 1<<32 + 1, lo + 17000, hi}
	merged := FamilyCounts{N: 9}
	for i := 0; i+1 < len(bounds); i++ {
		fc, err := CountRange(9, bounds[i], bounds[i+1])
		if err != nil {
			t.Fatalf("CountRange(9, %d, %d): %v", bounds[i], bounds[i+1], err)
		}
		merged.Merge(fc)
	}
	if merged != whole {
		t.Errorf("merged slices %+v != whole window %+v", merged, whole)
	}
}

// TestGrayRangeErrorsNotPanics pins the PR 5 contract: a malformed rank
// range — the kind a stale coordinator can put on the wire — must come back
// as an error from every rank-carrying entry point, never as a panic.
func TestGrayRangeErrorsNotPanics(t *testing.T) {
	bad := []struct {
		n      int
		lo, hi uint64
	}{
		{10, 0, 1},                // n past the ceiling
		{-1, 0, 0},                // negative n
		{9, 5, 4},                 // inverted
		{9, 0, n9Space + 1},       // past the 36-bit space
		{8, 0, uint64(1) << 29},   // past the n=8 space
		{9, n9Space, n9Space + 2}, // fully out of bounds
	}
	for _, c := range bad {
		if err := ValidateGrayRange(c.n, c.lo, c.hi); err == nil {
			t.Errorf("ValidateGrayRange(%d, %d, %d) accepted", c.n, c.lo, c.hi)
		}
		if err := EnumerateGraphsGrayRange(c.n, c.lo, c.hi, func(uint64, graph.Small) bool { return true }); err == nil {
			t.Errorf("EnumerateGraphsGrayRange(%d, %d, %d) accepted", c.n, c.lo, c.hi)
		}
		if _, err := CountRange(c.n, c.lo, c.hi); err == nil {
			t.Errorf("CountRange(%d, %d, %d) accepted", c.n, c.lo, c.hi)
		}
		if _, err := GraySourceForRange(c.n, c.lo, c.hi); err == nil {
			t.Errorf("GraySourceForRange(%d, %d, %d) accepted", c.n, c.lo, c.hi)
		}
	}
	// The degenerate-but-legal lo = hi range visits nothing and errors on
	// nothing, anywhere in the space.
	for _, at := range []uint64{0, 1 << 32, n9Space} {
		if err := EnumerateGraphsGrayRange(9, at, at, func(uint64, graph.Small) bool {
			t.Fatalf("empty range at %d visited a graph", at)
			return false
		}); err != nil {
			t.Errorf("empty range at %d: %v", at, err)
		}
	}
}

// TestParseRankRangeN9 checks the CLI rank vocabulary at the new width: the
// empty string must mean the full 2^36 space and explicit 36-bit bounds must
// parse exactly.
func TestParseRankRangeN9(t *testing.T) {
	if lo, hi, err := ParseRankRange("", 9); err != nil || lo != 0 || hi != n9Space {
		t.Errorf(`ParseRankRange("", 9) = %d, %d, %v; want [0,2^36)`, lo, hi, err)
	}
	if lo, hi, err := ParseRankRange("34359738368:34359738400", 9); err != nil || lo != 1<<35 || hi != 1<<35+32 {
		t.Errorf(`ParseRankRange("34359738368:34359738400", 9) = %d, %d, %v`, lo, hi, err)
	}
	if _, _, err := ParseRankRange("0:68719476737", 9); err == nil {
		t.Error("rank range past 2^36 accepted")
	}
}

// TestCountParallelN9 is the full exhaustive count at the ceiling, checked
// against OEIS A001187 (connected labelled graphs) and A001858 (labelled
// forests). 6.9·10¹⁰ graphs is core-hours of work, so it only runs when
// explicitly requested:
//
//	REFEREENET_N9_FULL=1 go test -run TestCountParallelN9 -timeout 0 ./internal/collide
func TestCountParallelN9(t *testing.T) {
	if os.Getenv("REFEREENET_N9_FULL") == "" {
		t.Skip("n=9 enumerates 6.9e10 graphs (core-hours); set REFEREENET_N9_FULL=1 to run")
	}
	fc := CountParallel(9)
	if fc.All != n9Space {
		t.Errorf("All = %d, want 2^36 = %d", fc.All, n9Space)
	}
	if fc.Bipartite != 1<<20 {
		t.Errorf("Bipartite = %d, want 2^20 = %d", fc.Bipartite, uint64(1)<<20)
	}
	if fc.Connected != 66296291072 {
		t.Errorf("Connected = %d, want 66296291072 (A001187)", fc.Connected)
	}
	if fc.Forests != 10026505 {
		t.Errorf("Forests = %d, want 10026505 (A001858)", fc.Forests)
	}
}
