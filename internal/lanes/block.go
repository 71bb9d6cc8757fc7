// Package lanes implements bitsliced ("SIMD within a register") evaluation
// of labelled-graph protocols: up to 64 graphs — consecutive Gray-code
// ranks (FillGray), any explicit edge masks (FillMasks) or a window of a
// pre-transposed MaskTable (FillTable) — are stored transposed, one uint64
// per edge position, bit j of lane e meaning "edge e is present in the
// block's j-th graph". Per-node degree counts, mod-k residues, parity and
// subgraph predicates then become a handful of word ops per edge lane
// instead of 64 scalar protocol runs. internal/engine consumes blocks
// through its opt-in VectorLocal/BlockSource capability pair: a Kernel
// reports one per-lane result (BlockStats) per block, and the engine folds
// it, weighting each lane by 1 or by its orbit weight.
package lanes

import (
	"fmt"
	"math/bits"

	"refereenet/internal/graph"
)

// Lanes is the block width: one graph per bit of a machine word.
const Lanes = 64

// maxEdges is C(MaxSmallN, 2): every enumerable graph's edge set fits one
// mask, so a block needs at most this many lanes.
const maxEdges = graph.MaxSmallN * (graph.MaxSmallN - 1) / 2

// Block holds up to 64 consecutive labelled graphs in transposed (bitsliced)
// form. Lane e is the uint64 whose bit j says whether edge e — in the
// graph.EdgeIndex ordering — is present in the block's j-th graph. The
// block's graphs are the binary-reflected Gray codes of ranks
// [Lo, Lo+Count), which is what lets FillGray build the transpose in one
// word XOR per rank instead of one bit insertion per edge.
//
// A Block is plain value state with no heap references; reusing one across
// FillGray calls is allocation-free.
type Block struct {
	n     int
	edges int
	lo    uint64
	count int
	live  uint64 // bit j set iff lane slot j holds a graph

	lane [maxEdges]uint64

	// Per-n lookup tables, rebuilt only when n changes: edge index → vertex
	// pair, and vertex pair → edge index (both orders).
	us, vs [maxEdges]int
	idx    [graph.MaxSmallN + 1][graph.MaxSmallN + 1]uint8
}

// setN (re)builds the vertex-pair tables when the block changes graph order.
func (b *Block) setN(n int) {
	if b.n == n {
		return
	}
	b.n = n
	b.edges = n * (n - 1) / 2
	for e := 0; e < b.edges; e++ {
		u, v := graph.EdgePair(n, e)
		b.us[e], b.vs[e] = u, v
		b.idx[u][v] = uint8(e)
		b.idx[v][u] = uint8(e)
	}
}

// grayPlanes[e] is the lane of edge e in the Gray codes of ranks 0..63:
// bit j is bit e of gray(j). The codes of 64 ranks touch only edges 0–5.
var grayPlanes = func() (p [6]uint64) {
	for j := uint64(0); j < Lanes; j++ {
		g := j ^ (j >> 1)
		for e := range p {
			p[e] |= (g >> uint(e) & 1) << j
		}
	}
	return p
}()

// FillGray loads the block with the graphs of Gray-code ranks
// [lo, lo+count) on n vertices. The first rank's code seeds every lane
// (broadcast of one edge mask); each subsequent rank differs from its
// predecessor in exactly one edge — bit TrailingZeros64(rank) — so the lane
// update is a single XOR of a suffix mask: flipping edge e at slot j toggles
// e in graph j and, because later graphs are built on top of the same walk,
// in every later slot too. Lanes beyond count (the ragged tail of a range
// not divisible by 64) are held at zero and masked out of LiveMask.
//
// A full block starting on a multiple of 64 skips the walk: there lo+j is
// lo|j, so gray(lo+j) = gray(lo) ^ gray(j), and every lane is its seed bit
// broadcast XORed with the fixed word grayPlanes[e] (edges 0–5 only).
//
// FillGray panics on out-of-range arguments; streaming sources validate
// their ranges before serving blocks.
func (b *Block) FillGray(n int, lo uint64, count int) {
	if n < 1 || n > graph.MaxSmallN {
		panic(fmt.Sprintf("lanes: n=%d outside [1,%d]", n, graph.MaxSmallN))
	}
	if count < 1 || count > Lanes {
		panic(fmt.Sprintf("lanes: block count %d outside [1,%d]", count, Lanes))
	}
	b.setN(n)
	if b.edges < 64 {
		if total := uint64(1) << uint(b.edges); uint64(count) > total || lo > total-uint64(count) {
			panic(fmt.Sprintf("lanes: ranks [%d,%d) exceed 2^%d", lo, lo+uint64(count), b.edges))
		}
	}
	b.lo = lo
	b.count = count
	b.live = ^uint64(0)
	if count < Lanes {
		b.live = 1<<uint(count) - 1
	}
	seed := lo ^ (lo >> 1)
	for e := 0; e < b.edges; e++ {
		b.lane[e] = -(seed >> uint(e) & 1) & b.live
	}
	if count == Lanes && lo%Lanes == 0 {
		for e := 0; e < len(grayPlanes) && e < b.edges; e++ {
			b.lane[e] ^= grayPlanes[e]
		}
		return
	}
	for j := 1; j < count; j++ {
		e := bits.TrailingZeros64(lo + uint64(j))
		b.lane[e] ^= b.live &^ (1<<uint(j) - 1)
	}
}

// FillMasks loads the block with len(masks) arbitrary edge-mask graphs on
// n vertices — the gather fill for streams that are *not* Gray-adjacent
// (word-packed corpus records), where FillGray's one-XOR-per-rank
// incremental walk does not apply. A mask list read many times over, such
// as an isomorphism-class table, is better kept as a MaskTable and loaded
// with FillTable. Slot j holds masks[j]; dead lanes (len(masks) < 64) are
// zero in every lane and masked out of LiveMask, the same ragged-tail
// guarantee FillGray gives. Lo reports 0: gathered slots have no Gray rank.
//
// The gather is a straight 64×64 bit-matrix transpose (~6·64 word ops per
// block, ~6 per graph — same order as the suffix-XOR fill), not 64 per-bit
// insertions.
//
// FillMasks panics on out-of-range n or count and on masks with bits at or
// beyond C(n,2); streaming sources validate records before serving blocks.
func (b *Block) FillMasks(n int, masks []uint64) {
	count := len(masks)
	if n < 1 || n > graph.MaxSmallN {
		panic(fmt.Sprintf("lanes: n=%d outside [1,%d]", n, graph.MaxSmallN))
	}
	if count < 1 || count > Lanes {
		panic(fmt.Sprintf("lanes: block count %d outside [1,%d]", count, Lanes))
	}
	b.setN(n)
	var rows [Lanes]uint64
	var wide uint64
	for j, m := range masks {
		rows[j] = m
		wide |= m
	}
	if b.edges < 64 && wide>>uint(b.edges) != 0 {
		panic(fmt.Sprintf("lanes: mask bits at or beyond C(%d,2)=%d", n, b.edges))
	}
	b.lo = 0
	b.count = count
	b.live = ^uint64(0)
	if count < Lanes {
		b.live = 1<<uint(count) - 1
	}
	transpose64(&rows)
	copy(b.lane[:b.edges], rows[:b.edges])
}

// transpose64 transposes the 64×64 bit matrix in place: bit c of word r
// moves to bit r of word c. The classic recursive block swap (Hacker's
// Delight §7-3): at stride j, exchange the low-j-bit halves of word pairs
// (k, k+j), shrinking j from 32 to 1.
func transpose64(a *[Lanes]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := uint(32); j != 0; {
		for k := 0; k < Lanes; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k+int(j)] ^ (a[k] >> j)) & m
			a[k+int(j)] ^= t
			a[k] ^= t << j
		}
		j >>= 1
		m ^= m << j
	}
}

// N returns the vertex count of the block's graphs.
func (b *Block) N() int { return b.n }

// Edges returns C(n,2), the number of populated lanes.
func (b *Block) Edges() int { return b.edges }

// Lo returns the first Gray rank loaded by FillGray.
func (b *Block) Lo() uint64 { return b.lo }

// Count returns the number of live lane slots.
func (b *Block) Count() int { return b.count }

// LiveMask returns the word with bit j set iff slot j holds a graph. Every
// kernel ANDs its result with this mask, so ragged tail blocks can never
// leak dead-lane bits into accept counts.
func (b *Block) LiveMask() uint64 { return b.live }

// EdgeLane returns lane e — bit j set iff edge e is present in graph j.
func (b *Block) EdgeLane(e int) uint64 { return b.lane[e] }

// PairLane returns the lane of edge {u,v}.
func (b *Block) PairLane(u, v int) uint64 { return b.lane[b.idx[u][v]] }

// UntransposeMask recovers slot j's graph as an edge mask — the inverse of
// the transpose, used by the round-trip tests and by scalar fallbacks.
func (b *Block) UntransposeMask(j int) uint64 {
	if j < 0 || j >= b.count {
		panic(fmt.Sprintf("lanes: slot %d outside block of %d", j, b.count))
	}
	var mask uint64
	for e := 0; e < b.edges; e++ {
		mask |= (b.lane[e] >> uint(j) & 1) << uint(e)
	}
	return mask
}
