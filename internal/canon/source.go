package canon

import (
	"fmt"
	"math/bits"

	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
)

// ClassSource streams the isomorphism-class representatives [lo, hi) of the
// n-vertex class table through ONE reused *graph.Graph, toggling only the
// edges whose mask bits differ between consecutive representatives — the
// quotient-plane counterpart of collide.GraySource. It implements
// engine.Weighted: the weight of the graph most recently yielded is its
// labelled-orbit size n!/|Aut|, which is what lets the batch layer
// reconstitute exact labelled totals from per-class protocol runs.
type ClassSource struct {
	classes []Class
	n       int
	pos     int
	mask    uint64
	weight  uint64
	g       *graph.Graph
	wts     [lanes.Lanes]uint64 // per-slot orbit weights of the last block
}

// NewClassSource streams the class-index range [lo, hi) of the n-vertex
// table; lo = hi = 0 means every class. Building the table on first use is
// expensive (seconds at n = 9) but happens once per process. After that,
// opening a source is O(1): it slices the shared, read-only table as
// [lo:hi:hi] without copying it, so a serve daemon's units and sub-shards
// pay nothing per open for the table. Sources never write to it.
func NewClassSource(n int, lo, hi uint64) (*ClassSource, error) {
	if n < 1 || n > MaxN {
		return nil, fmt.Errorf("canon: n=%d outside class range [1,%d]", n, MaxN)
	}
	classes, err := classTable(n)
	if err != nil {
		return nil, err
	}
	total := uint64(len(classes))
	if lo == 0 && hi == 0 {
		hi = total
	}
	if lo > hi || hi > total {
		return nil, fmt.Errorf("canon: class range [%d,%d) out of bounds for n=%d (%d classes)", lo, hi, n, total)
	}
	return &ClassSource{classes: classes[lo:hi:hi], n: n}, nil
}

// Len returns the number of classes the source will yield.
func (s *ClassSource) Len() int { return len(s.classes) }

// Next implements engine.Source. The returned graph is reused by the next
// call and must not be retained.
func (s *ClassSource) Next() *graph.Graph {
	if s.pos >= len(s.classes) {
		return nil
	}
	c := s.classes[s.pos]
	s.pos++
	s.weight = c.Weight
	if s.g == nil {
		s.mask = c.Mask
		s.g = graph.FromEdgeMask(s.n, c.Mask)
		return s.g
	}
	for diff := s.mask ^ c.Mask; diff != 0; diff &= diff - 1 {
		u, v := graph.EdgePair(s.n, bits.TrailingZeros64(diff))
		s.g.ToggleEdge(u, v)
	}
	s.mask = c.Mask
	return s.g
}

// NextBlock implements the block half of engine.WeightedBlockSource:
// the next ≤ 64 class representatives gathered into one transposed block
// via lanes.Block.FillMasks (representatives are not Gray-adjacent, so the
// incremental suffix-XOR fill does not apply), their orbit weights held
// for the paired Weights call. Advancing the class cursor does not touch
// the scalar toggle state — s.g always mirrors s.mask — so mixing Next and
// NextBlock on one source stays correct, like collide.GraySource.
func (s *ClassSource) NextBlock(blk *lanes.Block) bool {
	if s.pos >= len(s.classes) {
		return false
	}
	count := len(s.classes) - s.pos
	if count > lanes.Lanes {
		count = lanes.Lanes
	}
	var masks [lanes.Lanes]uint64
	for j := 0; j < count; j++ {
		c := s.classes[s.pos+j]
		masks[j] = c.Mask
		s.wts[j] = c.Weight
	}
	for j := count; j < lanes.Lanes; j++ {
		s.wts[j] = 0
	}
	blk.FillMasks(s.n, masks[:count])
	s.pos += count
	return true
}

// Weights implements the weight half of engine.WeightedBlockSource: slot
// j's labelled-orbit size for the block most recently served by NextBlock,
// zero in dead-lane slots.
func (s *ClassSource) Weights(w *[lanes.Lanes]uint64) { *w = s.wts }

// Reset rewinds the source to its first class. The scalar toggle state is
// kept (s.g still mirrors s.mask), so a rewound source replays the same
// stream allocation-free — steady-state benchmarks rely on this.
func (s *ClassSource) Reset() { s.pos = 0 }

// Weight implements engine.Weighted: the labelled-orbit size of the class
// most recently yielded by Next.
func (s *ClassSource) Weight() uint64 { return s.weight }

// Mask returns the canonical edge mask of the graph most recently yielded.
func (s *ClassSource) Mask() uint64 { return s.mask }

func init() {
	// The class table as a plannable source: spec {kind: "canon", n, lo, hi}
	// streams class indices [lo, hi) of the n-vertex table in ascending
	// canonical-mask order, each graph weighted by its orbit size. Lo = Hi =
	// 0 means every class. Disjoint index ranges cover disjoint classes, so
	// the sweep coordinator splits a quotient sweep across processes and
	// machines exactly like a Gray rank range — and the weighted stats merge
	// to the same labelled totals.
	engine.RegisterSource("canon", func(spec engine.SourceSpec) (engine.Source, error) {
		return NewClassSource(spec.N, spec.Lo, spec.Hi)
	})
	// The matching splitter for `serve -parallel`: a class-index range cuts
	// into contiguous sub-ranges through the shared engine.SplitRange chunk
	// shape. Resolving the table to learn the lo = hi = 0 default is pure
	// (deterministic, cached) compute, so unlike the "file" splitter the
	// full-table default is splittable too; a malformed spec declines so
	// resolution reports the error on the unsplit original.
	engine.RegisterSourceSplitter("canon", func(spec engine.SourceSpec, parts int) ([]engine.SourceSpec, bool) {
		if spec.N < 1 || spec.N > MaxN {
			return nil, false
		}
		lo, hi := spec.Lo, spec.Hi
		if lo == 0 && hi == 0 {
			total, err := ClassCount(spec.N)
			if err != nil {
				return nil, false
			}
			hi = total
		}
		if lo > hi {
			return nil, false
		}
		return engine.SplitSourceRange(spec, lo, hi, parts)
	})
}
