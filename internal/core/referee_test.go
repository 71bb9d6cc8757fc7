package core

import (
	"errors"
	"strings"
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
	"refereenet/internal/numeric"
)

// TestForestMessageIsDegeneracy1 pins what the shared peel rests on: the
// forest message is DegeneracyProtocol{K: 1}'s, bit for bit, at every
// vertex of every labelled graph on n ≤ 6 vertices.
func TestForestMessageIsDegeneracy1(t *testing.T) {
	deg1 := &DegeneracyProtocol{K: 1}
	for n := 1; n <= 6; n++ {
		for mask := uint64(0); mask < 1<<uint(n*(n-1)/2); mask++ {
			g := graph.FromEdgeMask(n, mask)
			for v := 1; v <= n; v++ {
				nbrs := g.Neighbors(v)
				if a, b := (ForestProtocol{}).LocalMessage(n, v, nbrs), deg1.LocalMessage(n, v, nbrs); !a.Equal(b) {
					t.Fatalf("n=%d mask %#x vertex %d: forest %s, degeneracy k=1 %s", n, mask, v, a, b)
				}
			}
		}
	}
}

// TestRefereeSumUnderflowIsError: on the path 1–2–3, vertex 2 claims the
// neighbor sum 1 instead of 4, so peeling the leaf 3 takes 3 out of a sum
// of 1. Each referee must return that as an error — not a panic, and not
// the clean rejection ErrDegeneracyExceeded.
func TestRefereeSumUnderflowIsError(t *testing.T) {
	const n = 3
	g := gen.Path(n)
	for _, p := range []engine.Reconstructor{&DegeneracyProtocol{K: 1}, ForestProtocol{}, &GeneralizedDegeneracyProtocol{K: 1}} {
		msgs := engine.LocalPhase(g, p, engine.Serial{}).Messages
		var w bits.Writer
		w.WriteUint(2, bits.Width(n))
		w.WriteUint(2, bits.Width(n))
		w.WriteUint(1, numeric.MaxPowerSumBits(n, 1))
		if _, co := p.(*GeneralizedDegeneracyProtocol); co {
			w.WriteUint(0, numeric.MaxPowerSumBits(n, 1))
		}
		msgs[1] = w.String()
		h, err := p.Reconstruct(n, msgs)
		if err == nil || errors.Is(err, ErrDegeneracyExceeded) || !strings.Contains(err.Error(), "below zero") {
			t.Errorf("%T: reconstructed %v, error %v; want a below-zero error", p, h, err)
		}
	}
}

// TestRefereeWideSums reconstructs end to end where the sums take several
// words: a 64-vertex 3-tree, and the adaptive protocol on a dense 64-vertex
// graph, whose last round runs at k = 64 with 391-bit sums and decodes
// neighborhoods of up to 63 vertices.
func TestRefereeWideSums(t *testing.T) {
	rng := gen.NewRand(900)
	reconstructAndCheck(t, gen.KTree(rng, 64, 3), &DegeneracyProtocol{K: 3})
	g := gen.Gnp(rng, 64, 0.9)
	res, err := engine.RunMultiRound(g, &AdaptiveReconstruction{}, 10, engine.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := res.Output.(*graph.Graph); !ok || !h.Equal(g) {
		t.Fatalf("adaptive run after %d rounds: wrong reconstruction", res.Rounds)
	}
	if d, _ := g.Degeneracy(); d <= 32 || res.Rounds != 7 {
		t.Fatalf("degeneracy %d took %d rounds, want > 32 and 7 rounds (k = 64)", d, res.Rounds)
	}
}
