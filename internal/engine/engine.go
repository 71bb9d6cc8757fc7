// Package engine is the one API for running a one-round protocol in the
// referee model: an n-node interconnection network G plus a referee (a
// universal node v0), where in one round every node sends the referee a
// single message computed from its own ID, the IDs of its neighbors, and n.
// Every place that evaluates a protocol — the public API, the CONGEST
// realization in internal/congest, the collision searches in
// internal/collide and the experiment kernels — routes the local phase
// through this package.
//
// The paper's Definition 1 splits a protocol Γ into a local function Γˡₙ
// (evaluated at every node) and a global function Γᵍₙ (run by the referee on
// the message vector). Local is Γˡ; Decider and Reconstructor pair it with
// the two shapes of Γᵍ the paper uses. That split is *semantic*. Orthogonal
// to it is the *scheduling* split: how the n evaluations of Γˡ are laid onto
// OS threads and in what order their messages are delivered. A Scheduler
// changes wall-clock behavior only — every scheduler produces the identical
// Transcript, because Γˡ is a pure function of (n, id, neighbors) and the
// referee indexes messages by sender ID. Transcripts account for every bit,
// so the frugality condition (max message size = O(log n)) is checked by
// measurement rather than by trust. RunMultiRound (multiround.go) extends
// the model to referee-driven adaptive rounds.
//
// On top of the single-graph pipeline sits the batch layer (batch.go): one
// protocol over a stream of graphs across a persistent worker pool, with
// per-shard transcripts and aggregated bit accounting. The protocol registry
// (registry.go) names every protocol the repo ships so that command-line
// tools and batch scenarios can resolve protocol × scheduler × graph-family
// combinations at run time.
package engine

import (
	"refereenet/internal/bits"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
)

// Local is the local function Γˡₙ of a one-round protocol: the message node
// id sends to the referee in a graph of n nodes when its neighborhood is
// nbrs (sorted ascending). Implementations must be pure functions of
// (n, id, nbrs) — the reductions in internal/core evaluate them on
// hypothetical graphs that are never materialized. The nbrs slice is only
// valid for the duration of the call and must not be retained: every
// scheduler reuses one neighbor buffer across millions of invocations.
type Local interface {
	LocalMessage(n, id int, nbrs []int) bits.String
}

// BufferedLocal is an optional allocation-free variant of Local: the message
// for (n, id, nbrs) is written into w (already Reset by the caller) instead
// of being returned as a fresh String. Batch runs detect it and route the
// hot loop through a per-worker writer + byte arena, which is what makes
// RunBatch allocation-free in the steady state for protocols that opt in.
// AppendLocalMessage must write exactly the bits LocalMessage returns.
type BufferedLocal interface {
	Local
	AppendLocalMessage(w *bits.Writer, n, id int, nbrs []int)
}

// VectorLocal is an optional lane-parallel variant of Local: the protocol
// can evaluate a transposed 64-graph lanes.Block with a handful of word ops
// and report one per-lane result (lanes.BlockStats), bypassing the
// per-graph message loop entirely. Batch detects it once at construction —
// the same opt-in pattern as BufferedLocal — and routes sources that serve
// blocks (BlockSource) through the kernel.
//
// VectorKernel may return nil to decline: the instance cannot vectorize
// under the given decide setting (e.g. an oracle whose predicate has no
// lane kernel), and the batch falls back to the scalar path. A non-nil
// kernel must reproduce the scalar loop's BatchStats exactly — that
// byte-identical contract is enforced by the conformance suite for every
// registered protocol claiming this interface.
type VectorLocal interface {
	Local
	VectorKernel(decide bool) lanes.Kernel
}

// Decider is a one-round protocol whose referee answers a yes/no question
// about the graph (e.g. "does G contain a square?").
type Decider interface {
	Local
	// Decide is the global function: it sees only n and the n messages,
	// ordered by sender ID.
	Decide(n int, msgs []bits.String) (bool, error)
}

// Reconstructor is a one-round protocol whose referee outputs the entire
// labelled graph (the paper's strongest goal; Lemma 1 counts how many graphs
// any frugal one can tell apart).
type Reconstructor interface {
	Local
	Reconstruct(n int, msgs []bits.String) (*graph.Graph, error)
}

// Named is implemented by protocols that can report a human-readable name.
type Named interface{ Name() string }

// Transcript records one execution of the local phase: the message vector
// Γˡ(G), ordered by sender ID. It is the unit of bit accounting for the
// whole repository.
type Transcript struct {
	N        int
	Messages []bits.String // Messages[i] is the message of node i+1
}

// MaxBits returns the size of the largest message — the quantity the
// frugality condition bounds.
func (t *Transcript) MaxBits() int {
	max := 0
	for _, m := range t.Messages {
		if m.Len() > max {
			max = m.Len()
		}
	}
	return max
}

// TotalBits returns the total communication volume received by the referee.
func (t *Transcript) TotalBits() int {
	total := 0
	for _, m := range t.Messages {
		total += m.Len()
	}
	return total
}

// FrugalityRatio returns MaxBits / log₂(n): the constant hidden in the
// O(log n) frugality bound. For n < 2 it returns MaxBits.
func (t *Transcript) FrugalityRatio() float64 {
	logn := Log2Ceil(t.N)
	if logn == 0 {
		return float64(t.MaxBits())
	}
	return float64(t.MaxBits()) / float64(logn)
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (0 for n ≤ 1) — the unit in which
// frugality budgets are denominated.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// FrugalBudget is the message-size budget c·⌈log₂ n⌉ + c0 used by frugality
// checks; the paper's protocols have c depending only on k.
type FrugalBudget struct {
	C  float64 // multiplier on ⌈log₂ n⌉
	C0 int     // additive slack (covers tiny-n constants)
}

// Allows reports whether a transcript fits within the budget.
func (b FrugalBudget) Allows(t *Transcript) bool {
	return float64(t.MaxBits()) <= b.C*float64(Log2Ceil(t.N))+float64(b.C0)
}

// LocalPhase runs the local function of p at every node of g under the given
// scheduler and returns the message vector Γˡ(G) as a transcript. All
// schedulers produce identical transcripts; they differ in wall-clock
// behavior only.
func LocalPhase(g *graph.Graph, p Local, s Scheduler) *Transcript {
	n := g.N()
	t := &Transcript{N: n, Messages: make([]bits.String, n)}
	s.Run(g, p, t.Messages)
	return t
}

// RunDecider executes a full one-round decision protocol on g: local phase
// under s, then the referee's global function.
func RunDecider(g *graph.Graph, d Decider, s Scheduler) (bool, *Transcript, error) {
	t := LocalPhase(g, d, s)
	ans, err := d.Decide(g.N(), t.Messages)
	return ans, t, err
}

// RunReconstructor executes a full one-round reconstruction protocol on g.
func RunReconstructor(g *graph.Graph, r Reconstructor, s Scheduler) (*graph.Graph, *Transcript, error) {
	t := LocalPhase(g, r, s)
	h, err := r.Reconstruct(g.N(), t.Messages)
	return h, t, err
}

// Fill evaluates p at every node of g into msgs (len ≥ g.N()) on the calling
// goroutine, using nbrs as neighbor scratch, and returns the possibly-grown
// scratch for reuse. It is the innermost kernel every scheduler and the
// collision searches share: one protocol evaluation per node, zero
// allocations beyond what the protocol itself does.
func Fill(g *graph.Graph, p Local, msgs []bits.String, nbrs []int) []int {
	return fillRange(g, p, msgs, 1, g.N(), nbrs)
}

// fillRange evaluates p at nodes lo..hi of g into msgs, reusing nbrs.
func fillRange(g *graph.Graph, p Local, msgs []bits.String, lo, hi int, nbrs []int) []int {
	n := g.N()
	for v := lo; v <= hi; v++ {
		nbrs = g.AppendNeighbors(v, nbrs[:0])
		msgs[v-1] = p.LocalMessage(n, v, nbrs)
	}
	return nbrs
}
