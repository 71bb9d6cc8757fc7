// Package refereenet reproduces "Adding a referee to an interconnection
// network: What can(not) be computed in one round" (Becker, Matamala, Nisse,
// Rapaport, Suchan, Todinca; IPDPS 2011).
//
// The model: an n-node network where each node knows only n, its own ID in
// 1..n and its neighbors' IDs, and sends ONE message of O(log n) bits to a
// central referee, who must then answer questions about the topology. The
// paper shows the referee can fully reconstruct graphs of bounded degeneracy
// (forests, planar, bounded treewidth, ...), yet cannot decide seemingly
// simple properties — "is there a square?", "a triangle?", "is the diameter
// at most 3?" — on arbitrary graphs.
//
// This root package is a small convenience facade over plain data (vertex
// counts and edge lists); the full API lives in the internal packages:
//
//	internal/engine   — the model (Definition 1) and its single execution
//	                    pipeline: schedulers (serial, chunked,
//	                    async-shuffled), multi-round runs, the protocol
//	                    registry, and batched multi-graph runs with unified
//	                    bit accounting
//	internal/core     — the paper's protocols and reductions
//	internal/graph    — labelled graphs and algorithms
//	internal/gen      — graph-family generators (gen.ByName is the shared
//	                    family vocabulary)
//	internal/collide  — exhaustive lower-bound machinery (n ≤ 8 Gray-code
//	                    enumeration), strawman protocols
//	internal/congest  — the CONGEST realization on G ∪ {v₀}, also an engine
//	                    scheduler
//	internal/sketch   — connectivity extensions (§IV)
//
// Every protocol in core, sketch and collide registers itself into the
// engine's registry, so cmd/refereesim and cmd/experiments can run any
// protocol × scheduler × family combination by name; Protocols lists them.
// The facade is exercised end to end by examples/, cmd/ and bench_test.go.
package refereenet

import (
	"fmt"

	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/graph"

	// Linked for their engine registry entries, so Protocols reports the
	// full lineup library users can resolve by name.
	_ "refereenet/internal/collide"
	_ "refereenet/internal/sketch"
)

// Protocols returns the names of every registered one-round protocol — the
// vocabulary accepted by the cmd tools' -protocol flags.
func Protocols() []string { return engine.Names() }

// Stats summarizes one protocol execution.
type Stats struct {
	// MaxMessageBits is the largest single message the referee received —
	// the quantity the frugality condition bounds by O(log n).
	MaxMessageBits int
	// TotalBits is the total communication volume.
	TotalBits int
	// FrugalityRatio is MaxMessageBits / ceil(log2 n).
	FrugalityRatio float64
	// Degeneracy is the k the protocol ran with.
	Degeneracy int
}

// Reconstruct runs the paper's Theorem 5 protocol on the graph given as an
// edge list over vertices 1..n: every node sends its O(k² log n)-bit
// power-sum message and the referee rebuilds the graph. k is discovered by
// doubling (the multi-round extension), so callers need not know the
// degeneracy in advance. Returns the reconstructed edge list, which equals
// the input up to ordering.
func Reconstruct(n int, edges [][2]int) ([][2]int, Stats, error) {
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("refereenet: %w", err)
	}
	res, err := engine.RunMultiRound(g, &core.AdaptiveReconstruction{}, 2*bitsLen(n)+2, engine.Chunked{})
	if err != nil {
		return nil, Stats{}, fmt.Errorf("refereenet: %w", err)
	}
	h := res.Output.(*graph.Graph)
	last := res.PerRound[len(res.PerRound)-1]
	k := 1 << uint(res.Rounds-1)
	st := Stats{
		MaxMessageBits: res.MaxNodeBits(),
		TotalBits:      totalAcrossRounds(res),
		FrugalityRatio: last.FrugalityRatio(),
		Degeneracy:     k,
	}
	return h.Edges(), st, nil
}

// ReconstructWithK runs the one-round protocol with a known degeneracy bound
// k, exactly as in the paper's Theorem 5.
func ReconstructWithK(n, k int, edges [][2]int) ([][2]int, Stats, error) {
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("refereenet: %w", err)
	}
	p := &core.DegeneracyProtocol{K: k}
	h, tr, err := engine.RunReconstructor(g, p, engine.Chunked{})
	if err != nil {
		return nil, Stats{}, fmt.Errorf("refereenet: %w", err)
	}
	st := Stats{
		MaxMessageBits: tr.MaxBits(),
		TotalBits:      tr.TotalBits(),
		FrugalityRatio: tr.FrugalityRatio(),
		Degeneracy:     k,
	}
	return h.Edges(), st, nil
}

// RecognizeDegeneracy reports whether the graph has degeneracy ≤ k using the
// one-round recognition protocol (the referee sees messages only).
func RecognizeDegeneracy(n, k int, edges [][2]int) (bool, error) {
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return false, fmt.Errorf("refereenet: %w", err)
	}
	p := &core.DegeneracyProtocol{K: k}
	tr := engine.LocalPhase(g, p, engine.Chunked{})
	ok, err := p.Recognize(n, tr.Messages)
	if err != nil {
		return false, fmt.Errorf("refereenet: %w", err)
	}
	return ok, nil
}

func bitsLen(n int) int {
	b := 0
	for v := n; v > 0; v >>= 1 {
		b++
	}
	return b
}

func totalAcrossRounds(res *engine.MultiRoundResult) int {
	total := res.BroadcastBits
	for _, tr := range res.PerRound {
		total += tr.TotalBits()
	}
	return total
}
