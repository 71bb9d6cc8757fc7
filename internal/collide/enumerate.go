// Package collide is the empirical side of the paper's lower bounds. Lemma 1
// and Theorems 1–3 are pigeonhole arguments: a frugal one-round protocol
// hands the referee too few bits to tell large graph families apart. For
// small n this package exhibits the pigeonhole concretely — it enumerates
// every labelled graph, counts families exactly, and finds explicit
// *collision certificates*: pairs of graphs with identical message vectors
// but different answers to "has a square?", "has a triangle?", "diam ≤ 3?"
// or "connected?", which witnesses that a given frugal protocol fails.
package collide

import (
	"fmt"

	"refereenet/internal/graph"
)

// MaxEnumerationN bounds exhaustive enumeration. With the zero-allocation
// Gray-code engine (word-packed graph.Small, one edge toggle per step) and
// the transport plane's cross-machine sweeps, the ceiling is n = 9:
// C(9,2) = 36 edge bits, 6.9·10¹⁰ graphs. That is NOT a single-invocation
// workload — it is ~256× the n = 8 space (which itself takes seconds across
// all CPUs), so full n = 9 passes are meant to run as rank-range slices
// split over a fleet (`refereesim sweep -ranks` / `cmd/collide -ranks`) and
// merged by addition. Callers that sweep to the ceiling must gate n ≥ 8
// behind an explicit opt-in (cmd/collide's -big flag) or testing.Short()
// awareness. graph.Small itself supports n ≤ 11, but C(10,2) = 45 edge bits
// (3.5·10¹³ graphs) stays out of reach for now.
const MaxEnumerationN = 9

// EnumerateGraphs calls visit on every labelled graph with vertex set
// {1..n}, in edge-mask order, stopping early if visit returns false.
// It panics for n > MaxEnumerationN.
func EnumerateGraphs(n int, visit func(mask uint64, g *graph.Graph) bool) {
	if n > MaxEnumerationN {
		panic(fmt.Sprintf("collide: n=%d exceeds enumeration bound %d", n, MaxEnumerationN))
	}
	total := uint(n * (n - 1) / 2)
	for mask := uint64(0); mask < 1<<total; mask++ {
		if !visit(mask, graph.FromEdgeMask(n, mask)) {
			return
		}
	}
}

// CountGraphs returns the number of labelled graphs on n vertices satisfying
// pred. It drains a GraySource: one reused graph, one edge toggled per step,
// so the only per-graph cost is pred itself. It panics for n outside
// [1, MaxEnumerationN].
func CountGraphs(n int, pred func(*graph.Graph) bool) uint64 {
	var count uint64
	src := NewGraySource(n)
	for g := src.Next(); g != nil; g = src.Next() {
		if pred(g) {
			count++
		}
	}
	return count
}

// FamilyCounts collects the exact sizes of the families the paper's
// counting arguments use, for one n.
type FamilyCounts struct {
	N          int
	All        uint64 // 2^C(n,2)
	SquareFree uint64 // Theorem 1's family
	Bipartite  uint64 // bipartite with fixed parts {1..n/2}, {n/2+1..n} (Theorem 3)
	Forests    uint64 // degeneracy ≤ 1 (reconstructible)
	Degen2     uint64 // degeneracy ≤ 2 (reconstructible)
	Connected  uint64 // the open question's family
}

// Merge adds o's counts into fc. Like engine.BatchStats.Merge it is
// commutative and associative, so counts from disjoint rank ranges —
// goroutine shards, or CountRange runs on different machines — combine into
// space totals in any order.
func (fc *FamilyCounts) Merge(o FamilyCounts) {
	fc.All += o.All
	fc.SquareFree += o.SquareFree
	fc.Bipartite += o.Bipartite
	fc.Forests += o.Forests
	fc.Degen2 += o.Degen2
	fc.Connected += o.Connected
}

// Count computes all family counts for 1 ≤ n ≤ MaxEnumerationN by exhaustive
// enumeration on the zero-allocation Gray-code engine: the graph is a
// word-packed stack value, one edge toggles per step, and no heap allocation
// happens anywhere in the loop (guarded by TestCountAllocFree). It panics
// for n outside the enumeration range — the full-space range is always valid
// for a valid n, so there is no rank input to fail on.
func Count(n int) FamilyCounts {
	if n < 1 || n > MaxEnumerationN {
		panic(fmt.Sprintf("collide: n=%d outside enumeration range [1,%d]", n, MaxEnumerationN))
	}
	total := uint(n * (n - 1) / 2)
	fc, err := CountRange(n, 0, 1<<total)
	if err != nil {
		panic("collide: " + err.Error())
	}
	return fc
}

// CountRange computes family counts over the Gray-code ranks [lo, hi) only —
// the fleet-splitting form: disjoint ranges counted on different machines
// Merge into the full-space counts Count reports. Ranks arrive from CLI
// flags and remote plans, so a malformed range (n or a bound outside the
// enumeration space) is returned as an error rather than a panic.
func CountRange(n int, lo, hi uint64) (FamilyCounts, error) {
	if n < 1 || n > MaxEnumerationN {
		return FamilyCounts{}, fmt.Errorf("collide: n=%d outside enumeration range [1,%d]", n, MaxEnumerationN)
	}
	if err := ValidateGrayRange(n, lo, hi); err != nil {
		return FamilyCounts{}, err
	}
	fc := FamilyCounts{N: n}
	countRange(&fc, n, lo, hi, n/2)
	return fc, nil
}
