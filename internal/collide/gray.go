package collide

import (
	"fmt"
	"math/bits"

	"refereenet/internal/graph"
)

// This file is the zero-allocation enumeration engine. The original
// EnumerateGraphs rebuilds a fresh heap-backed *graph.Graph for every one of
// the 2^C(n,2) edge masks; at n = 7 that is 2,097,152 graph constructions and
// the single dominant cost of every counting experiment. The engine here
// walks the masks in binary-reflected Gray-code order instead, so consecutive
// graphs differ in EXACTLY one edge: each step toggles one bit in a
// word-packed graph.Small that lives entirely on the stack. Visiting a graph
// costs one XOR and zero allocations.
//
// Gray-code facts used below: gray(i) = i ^ (i>>1) is a bijection on
// {0 .. 2^t-1}, and gray(i) differs from gray(i-1) in exactly bit
// TrailingZeros(i). Shards can therefore start anywhere: a worker covering
// ranks [lo,hi) seeds its graph from gray(lo) and toggles forward. At the
// n = 9 ceiling ranks span [0, 2^36): all rank arithmetic is uint64 and bit
// indices stay below C(9,2) = 36, far inside the word.
//
// Rank-carrying entry points (EnumerateGraphsGrayRange, CountRange,
// GraySourceForRange, ParseRankRange) return errors rather than panicking:
// ranks arrive from CLI flags and remote plans, and a malformed range from a
// stale coordinator must fail the unit, not kill the process that serves it.
// The n-only conveniences (EnumerateGraphsGray, Count) keep their panic
// contract for local callers with literal sizes.

// ValidateGrayRange checks that [lo, hi) is a well-formed Gray-code rank
// range of the size-n labelled-graph space: 0 ≤ n ≤ MaxEnumerationN and
// lo ≤ hi ≤ 2^C(n,2). It deliberately admits n = 0 — the enumeration
// functions legitimately enumerate the one (empty) graph on zero vertices —
// so the public rank-carrying entry points (ParseRankRange,
// GraySourceForRange, CountRange, the "gray" resolver) layer their own
// n ≥ 1 requirement on top; the RANGE arithmetic lives only here, so the
// accepted rank vocabulary cannot drift between the CLI flags, the source
// resolver, and the enumeration itself.
func ValidateGrayRange(n int, lo, hi uint64) error {
	if n < 0 || n > MaxEnumerationN {
		return fmt.Errorf("collide: n=%d outside enumeration range [0,%d]", n, MaxEnumerationN)
	}
	total := uint(n * (n - 1) / 2)
	if hi > 1<<total || lo > hi {
		return fmt.Errorf("collide: gray range [%d,%d) out of bounds for n=%d (space %d)", lo, hi, n, uint64(1)<<total)
	}
	return nil
}

// edgeTables[n] is the EdgePair decoding of every edge index of order n,
// built once and shared read-only by every Gray walk and source, so no
// toggle loop redoes the division.
type edgeTable struct{ us, vs [64]int }

var edgeTables = func() (t [MaxEnumerationN + 1]edgeTable) {
	for n := range t {
		for idx := 0; idx < n*(n-1)/2; idx++ {
			t[n].us[idx], t[n].vs[idx] = graph.EdgePair(n, idx)
		}
	}
	return t
}()

// EnumerateGraphsGray calls visit on every labelled graph with vertex set
// {1..n} in Gray-code order, stopping early if visit returns false. The
// Small is passed by value, so the visitor can keep or mutate it freely and
// the enumeration state never escapes to the heap. The set of visited masks
// is exactly that of EnumerateGraphs; only the order differs.
// It panics for n > MaxEnumerationN.
func EnumerateGraphsGray(n int, visit func(mask uint64, g graph.Small) bool) {
	if n < 0 || n > MaxEnumerationN {
		panic(fmt.Sprintf("collide: n=%d exceeds enumeration bound %d", n, MaxEnumerationN))
	}
	total := uint(n * (n - 1) / 2)
	if err := EnumerateGraphsGrayRange(n, 0, 1<<total, visit); err != nil {
		panic("collide: " + err.Error())
	}
}

// EnumerateGraphsGrayRange visits the Gray-code ranks [lo, hi): graph
// gray(i) for each i in the range, in order. Disjoint rank ranges cover
// disjoint mask sets (gray is a bijection), which is how CountParallel and
// the sweep plane shard the space. A malformed range — n or a bound outside
// the enumeration space — is returned as an error before any visit.
func EnumerateGraphsGrayRange(n int, lo, hi uint64, visit func(mask uint64, g graph.Small) bool) error {
	if err := ValidateGrayRange(n, lo, hi); err != nil {
		return err
	}
	if lo == hi {
		return nil
	}
	pairs := &edgeTables[n]
	mask := lo ^ (lo >> 1)
	s := graph.SmallFromMask(n, mask)
	if !visit(mask, s) {
		return nil
	}
	for i := lo + 1; i < hi; i++ {
		bit := bits.TrailingZeros64(i)
		mask ^= 1 << uint(bit)
		s.ToggleEdge(pairs.us[bit], pairs.vs[bit])
		if !visit(mask, s) {
			return nil
		}
	}
	return nil
}

// countInto tallies one graph into fc. Kept as a named same-package function
// (rather than a closure) so escape analysis keeps the Small on the stack —
// countRange runs with zero heap allocations.
func countInto(fc *FamilyCounts, s *graph.Small, half int) {
	fc.All++
	if !s.HasSquare() {
		fc.SquareFree++
	}
	if s.IsBipartiteWithParts(half) {
		fc.Bipartite++
	}
	if s.IsForest() {
		fc.Forests++
	}
	if s.DegeneracyAtMost(2) {
		fc.Degen2++
	}
	if s.IsConnected() {
		fc.Connected++
	}
}

// countRange tallies family counts over the Gray-code ranks [lo, hi) without
// allocating: the graph is a stack-resident Small and every predicate is
// branch-light word arithmetic. Shared by Count (full range) and the
// CountParallel shards. The range must be pre-validated.
func countRange(fc *FamilyCounts, n int, lo, hi uint64, half int) {
	if lo >= hi {
		return
	}
	pairs := &edgeTables[n]
	s := graph.SmallFromMask(n, lo^(lo>>1))
	countInto(fc, &s, half)
	for i := lo + 1; i < hi; i++ {
		bit := bits.TrailingZeros64(i)
		s.ToggleEdge(pairs.us[bit], pairs.vs[bit])
		countInto(fc, &s, half)
	}
}
