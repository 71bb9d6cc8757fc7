package core

import (
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

// shortened drops the last bit of a message, producing a malformed string.
func shortened(s bits.String) bits.String {
	var w bits.Writer
	for i := 0; i < s.Len()-1; i++ {
		w.WriteBit(s.Bit(i))
	}
	return w.String()
}

func reconstructAndCheck(t *testing.T, g *graph.Graph, p engine.Reconstructor) *engine.Transcript {
	t.Helper()
	h, tr, err := engine.RunReconstructor(g, p, engine.Serial{})
	if err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	if !h.Equal(g) {
		t.Fatalf("reconstruction differs:\n got %v\nwant %v", h, g)
	}
	return tr
}

func TestDegeneracyReconstructClasses(t *testing.T) {
	rng := gen.NewRand(100)
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"empty", graph.New(6), 0},
		{"single", graph.New(1), 1},
		{"tree", gen.RandomTree(rng, 40), 1},
		{"forest", gen.RandomForest(rng, 30, 3), 1},
		{"star", gen.Star(25), 1},
		{"cycle", gen.Cycle(12), 2},
		{"grid", gen.Grid(5, 6), 2},
		{"outerplanar", gen.MaximalOuterplanar(15), 2},
		{"apollonian", gen.Apollonian(rng, 30), 3},
		{"ktree3", gen.KTree(rng, 25, 3), 3},
		{"ktree5", gen.KTree(rng, 20, 5), 5},
		{"kdegenerate4", gen.RandomKDegenerate(rng, 35, 4, true), 4},
		{"complete6", gen.Complete(6), 5},
		{"pg2q3", gen.ProjectivePlaneIncidence(3), 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, _ := c.g.Degeneracy()
			if d > c.k {
				t.Fatalf("test bug: %s has degeneracy %d > k=%d", c.name, d, c.k)
			}
			p := &DegeneracyProtocol{K: c.k}
			tr := reconstructAndCheck(t, c.g, p)
			// Every message has the exact advertised size.
			want := p.MessageBits(c.g.N())
			for i, m := range tr.Messages {
				if m.Len() != want {
					t.Errorf("message %d has %d bits, want %d", i+1, m.Len(), want)
				}
			}
		})
	}
}

func TestDegeneracyRejectsDenseGraph(t *testing.T) {
	// K6 has degeneracy 5; k=2 must get stuck, not misreconstruct.
	g := gen.Complete(6)
	p := &DegeneracyProtocol{K: 2}
	_, _, err := engine.RunReconstructor(g, p, engine.Serial{})
	if err == nil {
		t.Fatal("expected failure on degeneracy 5 graph with k=2")
	}
	ok, rerr := runRecognize(g, p)
	if rerr != nil {
		t.Fatalf("recognize errored: %v", rerr)
	}
	if ok {
		t.Fatal("recognize accepted a too-dense graph")
	}
}

func runRecognize(g *graph.Graph, p *DegeneracyProtocol) (bool, error) {
	tr := engine.LocalPhase(g, p, engine.Serial{})
	return p.Recognize(g.N(), tr.Messages)
}

func TestRecognizeAcceptsExactThreshold(t *testing.T) {
	rng := gen.NewRand(101)
	g := gen.KTree(rng, 15, 3) // degeneracy exactly 3
	if ok, err := runRecognize(g, &DegeneracyProtocol{K: 3}); err != nil || !ok {
		t.Errorf("k=3 should accept: ok=%v err=%v", ok, err)
	}
	if ok, err := runRecognize(g, &DegeneracyProtocol{K: 2}); err != nil || ok {
		t.Errorf("k=2 should reject: ok=%v err=%v", ok, err)
	}
	if ok, err := runRecognize(g, &DegeneracyProtocol{K: 7}); err != nil || !ok {
		t.Errorf("k=7 should accept: ok=%v err=%v", ok, err)
	}
}

func TestDegeneracyLookupDecoderAgrees(t *testing.T) {
	rng := gen.NewRand(102)
	g := gen.KTree(rng, 14, 2)
	ld, err := NewLookupDecoder(14, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := reconstructAndCheck(t, g, &DegeneracyProtocol{K: 2})
	b := reconstructAndCheck(t, g, &DegeneracyProtocol{K: 2, Decoder: ld})
	// Same protocol, same messages.
	for i := range a.Messages {
		if !a.Messages[i].Equal(b.Messages[i]) {
			t.Fatalf("decoder choice changed the local phase at node %d", i+1)
		}
	}
}

func TestDegeneracyMessageSizeIsFrugal(t *testing.T) {
	// For fixed k the message must fit c(k)·log n with c(k) ≈ 2 + Σ(p+1)
	// = 2 + k(k+3)/2 plus slack for ceilings.
	for _, k := range []int{1, 2, 3, 5} {
		c := float64(2+k*(k+3)/2) + 1
		budget := engine.FrugalBudget{C: c, C0: 8 + 2*k}
		for _, n := range []int{4, 16, 64, 256, 1024} {
			p := &DegeneracyProtocol{K: k}
			tr := &engine.Transcript{N: n, Messages: nil}
			_ = tr
			bitsUsed := p.MessageBits(n)
			maxAllowed := budget.C*float64(log2ceilTest(n)) + float64(budget.C0)
			if float64(bitsUsed) > maxAllowed {
				t.Errorf("k=%d n=%d: %d bits exceeds budget %.0f", k, n, bitsUsed, maxAllowed)
			}
		}
	}
}

func log2ceilTest(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

func TestDegeneracyAllModesAgree(t *testing.T) {
	rng := gen.NewRand(103)
	g := gen.Apollonian(rng, 25)
	p := &DegeneracyProtocol{K: 3}
	for _, s := range []engine.Scheduler{engine.Serial{}, engine.Chunked{}, engine.Async{}} {
		h, _, err := engine.RunReconstructor(g, p, s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !h.Equal(g) {
			t.Fatalf("%s: wrong reconstruction", s.Name())
		}
	}
}

func TestDegeneracyMalformedMessages(t *testing.T) {
	g := gen.Path(5)
	p := &DegeneracyProtocol{K: 1}
	tr := engine.LocalPhase(g, p, engine.Serial{})

	// Wrong count.
	if _, err := p.Reconstruct(4, tr.Messages[:4]); err == nil {
		t.Error("expected error for truncated message vector")
	}
	// Swapped messages (IDs no longer match positions).
	swappedMsgs := append(tr.Messages[:0:0], tr.Messages...)
	swappedMsgs[0], swappedMsgs[1] = swappedMsgs[1], swappedMsgs[0]
	if _, err := p.Reconstruct(5, swappedMsgs); err == nil {
		t.Error("expected error for swapped messages")
	}
	// Truncated bitstring.
	short := append(tr.Messages[:0:0], tr.Messages...)
	short[2] = shortened(short[2])
	if _, err := p.Reconstruct(5, short); err == nil {
		t.Error("expected error for truncated bits")
	}
}

func TestRecognizeMalformedIsError(t *testing.T) {
	g := gen.Path(4)
	p := &DegeneracyProtocol{K: 1}
	tr := engine.LocalPhase(g, p, engine.Serial{})
	msgs := append(tr.Messages[:0:0], tr.Messages...)
	msgs[0], msgs[1] = msgs[1], msgs[0]
	if _, err := p.Recognize(4, msgs); err == nil {
		t.Error("malformed input should be an error, not a clean reject")
	}
}

func TestDegeneracyProtocolName(t *testing.T) {
	p := &DegeneracyProtocol{K: 4}
	if p.Name() != "degeneracy[k=4]" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestDegeneracyK0(t *testing.T) {
	// k=0 handles exactly edgeless graphs.
	g := graph.New(7)
	reconstructAndCheck(t, g, &DegeneracyProtocol{K: 0})
	h := gen.Path(7)
	if _, _, err := engine.RunReconstructor(h, &DegeneracyProtocol{K: 0}, engine.Serial{}); err == nil {
		t.Error("k=0 should fail on a path")
	}
}

func TestDegeneracyExhaustiveSmall(t *testing.T) {
	// All graphs on 5 vertices: reconstruct with k = degeneracy, reject with
	// k = degeneracy - 1.
	n := 5
	total := n * (n - 1) / 2
	for mask := uint64(0); mask < 1<<uint(total); mask++ {
		g := graph.FromEdgeMask(n, mask)
		d, _ := g.Degeneracy()
		p := &DegeneracyProtocol{K: d}
		h, _, err := engine.RunReconstructor(g, p, engine.Serial{})
		if err != nil {
			t.Fatalf("mask %d (degeneracy %d): %v", mask, d, err)
		}
		if !h.Equal(g) {
			t.Fatalf("mask %d: wrong reconstruction", mask)
		}
		if d > 0 {
			weak := &DegeneracyProtocol{K: d - 1}
			if ok, err := runRecognize(g, weak); err != nil || ok {
				t.Fatalf("mask %d: k=%d should cleanly reject (ok=%v err=%v)", mask, d-1, ok, err)
			}
		}
	}
}
