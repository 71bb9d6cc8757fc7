package lanes

// BlockStats is a kernel's result for one block: a per-lane view that the
// engine folds into engine.BatchStats (lanes cannot import engine). Live is
// the block's live mask and GraphBits the per-graph message-bit total,
// which every in-tree kernel computes from n alone, so it is uniform across
// the block. Accept is the verdict word, valid only when Decided; MaxBits
// and MaxN are per-graph maxima. The fold weighs each live lane — by 1, or
// by its orbit weight on a weighted source — so the counters (graphs, bits,
// accepted, rejected) live only in the fold, never in the kernel.
type BlockStats struct {
	Live      uint64
	Accept    uint64
	GraphBits uint64
	MaxBits   int
	MaxN      int
	Decided   bool
}

// Kernel evaluates one transposed block and overwrites st with its result.
// The contract mirrors the scalar batch loop exactly: the fold of st over
// a block must equal the scalar loop over the block's live graphs. A
// kernel must never report dead lanes — AND accept words with the block's
// LiveMask.
type Kernel func(b *Block, st *BlockStats)

// ConstWidthKernel is the kernel of any protocol whose per-node message
// width on n-vertex graphs is data-independent (the fixed-width strawmen:
// degree, mod-k, hash sketches). Message *content* varies per graph, but
// batch statistics only see bit counts, so the whole block is one O(1)
// result: every live graph ships n nodes × width(n) bits.
func ConstWidthKernel(width func(n int) int) Kernel {
	return func(b *Block, st *BlockStats) {
		n := b.N()
		w := width(n)
		*st = BlockStats{Live: b.LiveMask(), GraphBits: uint64(n) * uint64(w), MaxBits: w, MaxN: n}
	}
}

// DecideKernel wraps a constant-width row protocol (width bits per node)
// with a per-lane accept predicate: the oracle-decider shape, where every
// node ships width(n) bits and the referee's verdict is the accept bit.
// When decide is false the batch is not tallying verdicts and the predicate
// is skipped entirely.
func DecideKernel(width func(n int) int, accept func(b *Block) uint64, decide bool) Kernel {
	base := ConstWidthKernel(width)
	if !decide {
		return base
	}
	return func(b *Block, st *BlockStats) {
		base(b, st)
		st.Accept = accept(b) & st.Live
		st.Decided = true
	}
}
