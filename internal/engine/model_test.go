package engine_test

// Tests of the model itself: transcript bit accounting, frugality budgets,
// the one-round run functions end to end, and the multi-round extension.

import (
	"fmt"
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

func TestTranscriptAccounting(t *testing.T) {
	tr := &engine.Transcript{N: 4, Messages: []bits.String{
		bits.FromBits(1, 0),
		bits.FromBits(1, 0, 1),
		bits.FromBits(),
		bits.FromBits(1),
	}}
	if tr.MaxBits() != 3 {
		t.Errorf("max = %d", tr.MaxBits())
	}
	if tr.TotalBits() != 6 {
		t.Errorf("total = %d", tr.TotalBits())
	}
	// log2ceil(4) = 2 → ratio 1.5.
	if r := tr.FrugalityRatio(); r != 1.5 {
		t.Errorf("ratio = %f", r)
	}
}

func TestFrugalityRatioTinyN(t *testing.T) {
	tr := &engine.Transcript{N: 1, Messages: []bits.String{bits.FromBits(1, 1)}}
	if tr.FrugalityRatio() != 2 {
		t.Errorf("n=1 ratio should be raw bits, got %f", tr.FrugalityRatio())
	}
}

func TestFrugalBudget(t *testing.T) {
	tr := &engine.Transcript{N: 16, Messages: []bits.String{bits.FromBits(1, 1, 1, 1, 1, 1, 1, 1)}}
	// 8 bits vs budget 2*4+0 = 8: allowed.
	if !(engine.FrugalBudget{C: 2}).Allows(tr) {
		t.Error("8 bits should fit 2·log₂16")
	}
	if (engine.FrugalBudget{C: 1, C0: 3}).Allows(tr) {
		t.Error("8 bits should not fit 1·log₂16+3")
	}
}

func TestRunDeciderEndToEnd(t *testing.T) {
	g := gen.Cycle(6)
	got, tr, err := engine.RunDecider(g, core.NewTriangleOracle(), engine.Chunked{})
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("C6 has no triangle")
	}
	if tr.MaxBits() != 6 {
		t.Errorf("oracle message should be n bits, got %d", tr.MaxBits())
	}
}

func ExampleRunReconstructor() {
	g := gen.Grid(3, 3) // planar, degeneracy 2
	p := &core.DegeneracyProtocol{K: 2}
	h, tr, err := engine.RunReconstructor(g, p, engine.Serial{})
	if err != nil {
		panic(err)
	}
	fmt.Println("reconstructed:", h.Equal(g))
	fmt.Println("message bits:", tr.MaxBits())
	// Output:
	// reconstructed: true
	// message bits: 25
}

func TestMultiRoundAdaptive(t *testing.T) {
	rng := gen.NewRand(501)
	cases := []struct {
		name      string
		g         *graph.Graph
		maxRounds int
		wantRound int
	}{
		{"forest", gen.RandomTree(rng, 20), 8, 1}, // degeneracy 1 → k=1 round 1
		{"ktree2", gen.KTree(rng, 18, 2), 8, 2},   // degeneracy 2 → k=2 round 2
		{"ktree4", gen.KTree(rng, 18, 4), 8, 3},   // degeneracy 4 → k=4 round 3
		{"complete9", gen.Complete(9), 8, 4},      // degeneracy 8 → k=8 round 4
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := &core.AdaptiveReconstruction{}
			res, err := engine.RunMultiRound(c.g, a, c.maxRounds, engine.Serial{})
			if err != nil {
				t.Fatal(err)
			}
			got, ok := res.Output.(*graph.Graph)
			if !ok {
				t.Fatalf("output type %T", res.Output)
			}
			if !got.Equal(c.g) {
				t.Fatal("wrong reconstruction")
			}
			if res.Rounds != c.wantRound {
				t.Errorf("rounds = %d, want %d", res.Rounds, c.wantRound)
			}
			// One broadcast bit per extra round.
			if res.BroadcastBits != res.Rounds-1 {
				t.Errorf("broadcast bits = %d, want %d", res.BroadcastBits, res.Rounds-1)
			}
		})
	}
}

func TestMultiRoundLimit(t *testing.T) {
	g := gen.Complete(10)
	a := &core.AdaptiveReconstruction{}
	_, err := engine.RunMultiRound(g, a, 1, engine.Serial{})
	if err == nil {
		t.Fatal("expected round-limit error")
	}
}

func TestMultiRoundCapStuck(t *testing.T) {
	g := gen.Complete(10) // degeneracy 9
	a := &core.AdaptiveReconstruction{MaxK: 4}
	_, err := engine.RunMultiRound(g, a, 10, engine.Serial{})
	if err == nil {
		t.Fatal("expected capped-k failure")
	}
}

func TestMultiRoundMaxNodeBits(t *testing.T) {
	g := gen.KTree(gen.NewRand(77), 12, 2)
	res, err := engine.RunMultiRound(g, &core.AdaptiveReconstruction{}, 8, engine.Serial{})
	if err != nil {
		t.Fatal(err)
	}
	// MaxNodeBits is the max over rounds; the last round (k=2) dominates.
	p := &core.DegeneracyProtocol{K: 2}
	if res.MaxNodeBits() != p.MessageBits(12) {
		t.Errorf("MaxNodeBits = %d, want %d", res.MaxNodeBits(), p.MessageBits(12))
	}
}
