package core

import (
	"testing"
	"testing/quick"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

// flipBit returns a copy of s with bit i inverted.
func flipBit(s bits.String, i int) bits.String {
	var w bits.Writer
	for j := 0; j < s.Len(); j++ {
		b := s.Bit(j)
		if j == i {
			b = 1 - b
		}
		w.WriteBit(b)
	}
	return w.String()
}

// TestDegeneracyBitFlipRobustness: flipping any single bit of any message
// must never panic and must never be silently *inconsistent*: if the referee
// still outputs a graph, re-encoding that graph must reproduce the corrupted
// message vector (i.e. the corruption happened to be another valid codeword
// — the only legitimate way to survive).
func TestDegeneracyBitFlipRobustness(t *testing.T) {
	rng := gen.NewRand(800)
	g := gen.KTree(rng, 10, 2)
	p := &DegeneracyProtocol{K: 2}
	tr := engine.LocalPhase(g, p, engine.Serial{})
	survived, rejected := 0, 0
	for node := 0; node < g.N(); node++ {
		for i := 0; i < tr.Messages[node].Len(); i++ {
			corrupted := append(tr.Messages[:0:0], tr.Messages...)
			corrupted[node] = flipBit(tr.Messages[node], i)
			h, err := p.Reconstruct(g.N(), corrupted)
			if err != nil {
				rejected++
				continue
			}
			survived++
			// The only acceptable survival: the corrupted vector is exactly
			// the encoding of h.
			reenc := engine.LocalPhase(h, p, engine.Serial{})
			for j := range corrupted {
				if !corrupted[j].Equal(reenc.Messages[j]) {
					t.Fatalf("node %d bit %d: silent mis-reconstruction", node+1, i)
				}
			}
		}
	}
	if rejected == 0 {
		t.Error("expected at least some corruptions to be rejected")
	}
	t.Logf("bit flips: %d rejected, %d decoded to consistent codewords", rejected, survived)
}

// TestForestBitFlipRobustness: same contract for the forest protocol.
func TestForestBitFlipRobustness(t *testing.T) {
	rng := gen.NewRand(801)
	g := gen.RandomTree(rng, 9)
	p := ForestProtocol{}
	tr := engine.LocalPhase(g, p, engine.Serial{})
	for node := 0; node < g.N(); node++ {
		for i := 0; i < tr.Messages[node].Len(); i++ {
			corrupted := append(tr.Messages[:0:0], tr.Messages...)
			corrupted[node] = flipBit(tr.Messages[node], i)
			h, err := p.Reconstruct(g.N(), corrupted)
			if err != nil {
				continue
			}
			reenc := engine.LocalPhase(h, p, engine.Serial{})
			for j := range corrupted {
				if !corrupted[j].Equal(reenc.Messages[j]) {
					t.Fatalf("node %d bit %d: silent mis-reconstruction", node+1, i)
				}
			}
		}
	}
}

// TestQuickDegeneracyRoundTrip: encode→decode is the identity on random
// k-degenerate graphs across random seeds, sizes, and k.
func TestQuickDegeneracyRoundTrip(t *testing.T) {
	f := func(seed int64, rawN uint8, rawK uint8) bool {
		n := int(rawN)%40 + 2
		k := int(rawK)%4 + 1
		g := gen.RandomKDegenerate(gen.NewRand(seed), n, k, false)
		p := &DegeneracyProtocol{K: k}
		h, _, err := engine.RunReconstructor(g, p, engine.Serial{})
		return err == nil && h.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickGeneralizedRoundTrip: same for the generalized protocol on
// complements.
func TestQuickGeneralizedRoundTrip(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%20 + 3
		g := gen.RandomTree(gen.NewRand(seed), n).Complement()
		p := &GeneralizedDegeneracyProtocol{K: 1}
		h, _, err := engine.RunReconstructor(g, p, engine.Serial{})
		return err == nil && h.Equal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRelabelInvariance: the protocol must work identically under any
// relabelling — the model gives IDs no structure.
func TestRelabelInvariance(t *testing.T) {
	rng := gen.NewRand(802)
	for trial := 0; trial < 10; trial++ {
		g := gen.Relabel(rng, gen.Apollonian(rng, 20))
		p := &DegeneracyProtocol{K: 3}
		h, _, err := engine.RunReconstructor(g, p, engine.Serial{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !h.Equal(g) {
			t.Fatalf("trial %d: relabelled graph mis-reconstructed", trial)
		}
	}
}

// TestReductionMessageRelations pins the paper's exact size relations: for
// a b(n)-bit Γ, |Δ_square| = b(2n); |Δ_diam| = 3·b(n+3) + framing;
// |Δ_triangle| = 2·b(n+1) + framing.
func TestReductionMessageRelations(t *testing.T) {
	oracleBits := func(n int) int { return n } // oracle rows are n bits
	rng := gen.NewRand(803)
	g := gen.GreedySquareFree(rng, 12, 0)
	n := g.N()

	sq := &SquareReduction{Gamma: NewSquareOracle()}
	tr := engine.LocalPhase(g, sq, engine.Serial{})
	for _, m := range tr.Messages {
		if m.Len() != oracleBits(2*n) {
			t.Errorf("square: %d bits, want %d", m.Len(), oracleBits(2*n))
		}
	}

	di := &DiameterReduction{Gamma: NewDiameterOracle(3)}
	tr = engine.LocalPhase(g, di, engine.Serial{})
	inner := 3 * oracleBits(n+3)
	for _, m := range tr.Messages {
		if m.Len() < inner || m.Len() > inner+3*(2*bits.Width(n+4)+1) {
			t.Errorf("diameter: %d bits, want %d + small framing", m.Len(), inner)
		}
	}

	trc := &TriangleReduction{Gamma: NewTriangleOracle()}
	tr = engine.LocalPhase(g, trc, engine.Serial{})
	inner = 2 * oracleBits(n+1)
	for _, m := range tr.Messages {
		if m.Len() < inner || m.Len() > inner+2*(2*bits.Width(n+2)+1) {
			t.Errorf("triangle: %d bits, want %d + small framing", m.Len(), inner)
		}
	}
}

// TestReductionLocalPurity: the reductions' local functions must not mutate
// the neighborhood slice they are given (they append gadget neighbors).
func TestReductionLocalPurity(t *testing.T) {
	nbrs := []int{2, 5, 9}
	orig := append([]int(nil), nbrs...)
	protos := []engine.Local{
		&SquareReduction{Gamma: NewSquareOracle()},
		&DiameterReduction{Gamma: NewDiameterOracle(3)},
		&TriangleReduction{Gamma: NewTriangleOracle()},
		&DegeneracyProtocol{K: 2},
		ForestProtocol{},
	}
	for _, p := range protos {
		p.LocalMessage(12, 1, nbrs)
		for i := range orig {
			if nbrs[i] != orig[i] {
				t.Fatalf("%T mutated the caller's neighborhood slice", p)
			}
		}
	}
}

// TestAdaptiveExhaustiveTiny: the multi-round adaptive protocol on every
// graph with 4 vertices.
func TestAdaptiveExhaustiveTiny(t *testing.T) {
	n := 4
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		res, err := engine.RunMultiRound(g, &AdaptiveReconstruction{}, 8, engine.Serial{})
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if !res.Output.(*graph.Graph).Equal(g) {
			t.Fatalf("mask %d: wrong reconstruction", mask)
		}
	}
}

// TestOracleMessageIsIncidenceRow pins the oracle wire format used by the
// size-relation assertions above.
func TestOracleMessageIsIncidenceRow(t *testing.T) {
	o := NewSquareOracle()
	m := o.LocalMessage(5, 2, []int{1, 4})
	if m.Len() != 5 {
		t.Fatalf("row length %d", m.Len())
	}
	wantBits := []int{1, 0, 0, 1, 0}
	for i, b := range wantBits {
		if m.Bit(i) != b {
			t.Errorf("bit %d = %d, want %d", i, m.Bit(i), b)
		}
	}
}
