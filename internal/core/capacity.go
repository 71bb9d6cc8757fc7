package core

import (
	"math"

	"refereenet/internal/engine"
)

// Lemma 1, made quantitative: a one-round protocol whose nodes each send at
// most b bits gives the referee at most n·b bits total, so it can
// distinguish at most 2^{n·b} graphs. A family with more members on n
// vertices than that cannot be reconstructed. This file provides the
// bookkeeping the experiments print.

// CapacityBits returns the total information the referee receives when each
// of n nodes sends at most perNodeBits bits: n·perNodeBits.
func CapacityBits(n, perNodeBits int) float64 {
	return float64(n) * float64(perNodeBits)
}

// FrugalCapacityBits returns the capacity of a frugal protocol with message
// bound c·⌈log₂ n⌉: n·c·⌈log₂ n⌉ bits.
func FrugalCapacityBits(n int, c float64) float64 {
	return float64(n) * c * math.Ceil(math.Log2(float64(n)))
}

// Log2AllGraphs returns log₂ of the number of labelled graphs on n vertices:
// C(n,2) (each pair independently an edge).
func Log2AllGraphs(n int) float64 {
	return float64(n) * float64(n-1) / 2
}

// Log2BalancedBipartite returns log₂ of the number of bipartite graphs with
// fixed parts {1..n/2} and {n/2+1..n}: (n/2)², the count in Theorem 3.
func Log2BalancedBipartite(n int) float64 {
	h := float64(n / 2)
	return h * (float64(n) - h)
}

// Log2SquareFreeLowerBound returns the Kleitman–Winston style lower bound
// exponent log₂(#square-free graphs) ≥ c·n^{3/2} used in Theorem 1; the
// constant is conservative (c = 1/2·(1/√2) from the incidence-graph
// construction: a C4-free graph with ~½·n^{3/2}/√2 edges exists, and every
// subgraph of it is C4-free).
func Log2SquareFreeLowerBound(n int) float64 {
	return 0.5 * math.Pow(float64(n), 1.5) / math.Sqrt2
}

// Reconstructible reports whether a family with log₂(count) = logCount could
// even in principle be reconstructed by a protocol with the given transcript
// capacity (pigeonhole direction of Lemma 1).
func Reconstructible(logCount, capacityBits float64) bool {
	return logCount <= capacityBits
}

// TranscriptCapacity returns the capacity actually used by a transcript:
// the sum of message lengths (an upper bound on what the referee learned).
func TranscriptCapacity(t *engine.Transcript) float64 {
	return float64(t.TotalBits())
}
