package lanes

import (
	"fmt"

	"refereenet/internal/graph"
)

// MaskTable is a read-only list of n-vertex edge masks kept in a Block's
// own layout: transposed in 64-mask chunks of C(n,2) lane words, chunk c
// holding masks [64c, 64c+64) with lane word e of chunk c at words[c·C(n,2)
// + e]. Slots past the last mask are zero, and one zero pad chunk follows
// the last chunk. A table transposes once when it is built; FillTable then
// loads any window by copying or funnel-shifting lane words.
type MaskTable struct {
	n, edges, count int
	words           []uint64
}

// NewMaskTable transposes masks into a table of n-vertex graphs. It panics
// on n outside [0, graph.MaxSmallN] and on masks with bits at or beyond
// C(n,2).
func NewMaskTable(n int, masks []uint64) MaskTable {
	if n < 0 || n > graph.MaxSmallN {
		panic(fmt.Sprintf("lanes: n=%d outside [0,%d]", n, graph.MaxSmallN))
	}
	edges := n * (n - 1) / 2
	chunks := (len(masks) + Lanes - 1) / Lanes
	t := MaskTable{n: n, edges: edges, count: len(masks), words: make([]uint64, (chunks+1)*edges)}
	for c := 0; c < chunks; c++ {
		var rows [Lanes]uint64
		var wide uint64
		for j, m := range masks[c*Lanes : min((c+1)*Lanes, len(masks))] {
			rows[j] = m
			wide |= m
		}
		if edges < 64 && wide>>uint(edges) != 0 {
			panic(fmt.Sprintf("lanes: mask bits at or beyond C(%d,2)=%d", n, edges))
		}
		transpose64(&rows)
		copy(t.words[c*edges:], rows[:edges])
	}
	return t
}

// Chunk untransposes chunk c: rows[j] is mask 64c+j, zero past the last
// mask.
// transpose64 is its own inverse, so this is one transpose per 64 masks.
func (t *MaskTable) Chunk(c int, rows *[Lanes]uint64) {
	*rows = [Lanes]uint64{}
	copy(rows[:t.edges], t.words[c*t.edges:(c+1)*t.edges])
	transpose64(rows)
}

// FillTable loads the block with masks [lo, lo+count) of t, the same block
// FillMasks builds from those masks, without transposing. Slot j of the
// window is bit s+j of chunk c = lo/64 (s = lo%64), carried into chunk c+1
// past bit 63, so each lane word is a funnel shift of two adjacent chunks'
// words; s = 0 makes it a plain copy (Go defines x<<64 as 0), and the zero
// pad chunk keeps chunk c+1 in range. Each lane is ANDed with the live mask,
// so the table's next masks never leak into dead lanes. Lo reports 0, as
// after FillMasks.
//
// FillTable panics on an n = 0 table, a count outside [1,64] and a window
// past the table's end.
func (b *Block) FillTable(t *MaskTable, lo, count int) {
	if t.n < 1 {
		panic(fmt.Sprintf("lanes: n=%d outside [1,%d]", t.n, graph.MaxSmallN))
	}
	if count < 1 || count > Lanes {
		panic(fmt.Sprintf("lanes: block count %d outside [1,%d]", count, Lanes))
	}
	if lo < 0 || lo > t.count-count {
		panic(fmt.Sprintf("lanes: window [%d,%d) outside table of %d masks", lo, lo+count, t.count))
	}
	b.setN(t.n)
	b.lo = 0
	b.count = count
	b.live = ^uint64(0)
	if count < Lanes {
		b.live = 1<<uint(count) - 1
	}
	e, s := t.edges, uint(lo%Lanes)
	cur := t.words[lo/Lanes*e:][:e]
	next := t.words[(lo/Lanes+1)*e:][:e]
	dst, live := b.lane[:e], b.live
	for i, w := range cur {
		dst[i] = (w>>s | next[i]<<(Lanes-s)) & live
	}
}
