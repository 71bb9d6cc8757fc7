package collide

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"refereenet/internal/graph"
	"refereenet/internal/lanes"
)

// ParseRankRange parses the "lo:hi" vocabulary of the -ranks CLI flags into
// a validated Gray-code rank range of the size-n labelled-graph space. The
// empty string means the full [0, 2^C(n,2)) space. Shared by cmd/refereesim
// and cmd/collide so the fleet-splitting syntax cannot drift between them.
func ParseRankRange(s string, n int) (lo, hi uint64, err error) {
	if n < 1 || n > MaxEnumerationN {
		return 0, 0, fmt.Errorf("collide: n=%d outside enumeration range [1,%d]", n, MaxEnumerationN)
	}
	total := uint64(1) << uint(n*(n-1)/2)
	if s == "" {
		return 0, total, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("rank range wants lo:hi, got %q", s)
	}
	if lo, err = strconv.ParseUint(parts[0], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("rank range lo: %v", err)
	}
	if hi, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("rank range hi: %v", err)
	}
	if err := ValidateGrayRange(n, lo, hi); err != nil {
		return 0, 0, fmt.Errorf("rank range [%d,%d) out of bounds for n=%d (space %d)", lo, hi, n, total)
	}
	return lo, hi, nil
}

// GraySource streams every labelled graph of a Gray-code rank range through
// ONE reused *graph.Graph, toggling a single edge per step — the
// zero-allocation enumeration engine exposed as a pull-style stream for
// engine.RunBatch. The yielded pointer is only valid until the next Next
// call — the engine.BlockSource contract — so batch runs keep it on a
// single goroutine. To parallelize, split the rank space into per-worker
// ranges (NewGraySourceRange) and use Batch.RunShards — disjoint rank
// ranges cover disjoint mask sets.
type GraySource struct {
	n       int
	lo      uint64 // first rank of the range (for Reset)
	next    uint64 // next rank to visit
	hi      uint64
	mask    uint64
	g       *graph.Graph
	pairs   *edgeTable // shared with every order-n walk
	started bool
}

// NewGraySource streams all 2^C(n,2) labelled graphs on {1..n}.
func NewGraySource(n int) *GraySource {
	total := uint(n * (n - 1) / 2)
	return NewGraySourceRange(n, 0, 1<<total)
}

// NewGraySourceRange streams the Gray-code ranks [lo, hi).
func NewGraySourceRange(n int, lo, hi uint64) *GraySource {
	s, err := GraySourceForRange(n, lo, hi)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// GraySourceForRange is NewGraySourceRange with validation errors instead of
// panics — the form the spec resolver needs, since source specs cross
// process boundaries and may be malformed.
func GraySourceForRange(n int, lo, hi uint64) (*GraySource, error) {
	if n < 1 || n > MaxEnumerationN {
		return nil, fmt.Errorf("collide: n=%d outside enumeration range [1,%d]", n, MaxEnumerationN)
	}
	if err := ValidateGrayRange(n, lo, hi); err != nil {
		return nil, err
	}
	return &GraySource{n: n, lo: lo, next: lo, hi: hi, pairs: &edgeTables[n]}, nil
}

// Reset rewinds the source to the start of its range, so one source can
// feed repeated runs (steady-state benchmarks) without reallocating.
func (s *GraySource) Reset() {
	s.next = s.lo
	s.started = false
}

// Next implements engine.Source. The returned graph is reused by the next
// call and must not be retained.
func (s *GraySource) Next() *graph.Graph {
	if s.next >= s.hi {
		return nil
	}
	if !s.started {
		s.started = true
		s.mask = s.next ^ (s.next >> 1)
		s.g = graph.FromEdgeMask(s.n, s.mask)
		s.next++
		return s.g
	}
	bit := bits.TrailingZeros64(s.next)
	s.mask ^= 1 << uint(bit)
	s.g.ToggleEdge(s.pairs.us[bit], s.pairs.vs[bit])
	s.next++
	return s.g
}

// NextBlock implements engine.BlockSource: it overwrites blk with the next
// ≤ 64 ranks of the range and advances the stream, so vector-capable
// batches consume the same [lo, hi) walk 64 graphs at a time. A block ends
// at the next multiple of 64, so a range with an unaligned lo starts with
// one short head block and every later full block takes FillGray's aligned
// fast path. Ragged tails (hi − next < 64) become partial blocks with a
// matching LiveMask. Mixing Next and NextBlock on one source is legal — the
// scalar cursor re-seeds from the rank after the last served block.
func (s *GraySource) NextBlock(blk *lanes.Block) bool {
	if s.next >= s.hi {
		return false
	}
	count := lanes.Lanes - s.next%lanes.Lanes
	if rem := s.hi - s.next; count > rem {
		count = rem
	}
	blk.FillGray(s.n, s.next, int(count))
	s.next += count
	last := s.next - 1
	s.mask = last ^ (last >> 1)
	s.started = false // a later scalar Next re-seeds its reused graph
	return true
}

// Mask returns the edge mask of the graph most recently yielded by Next.
func (s *GraySource) Mask() uint64 { return s.mask }
