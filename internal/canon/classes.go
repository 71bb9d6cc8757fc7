package canon

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"refereenet/internal/lanes"
)

// Class is one isomorphism class of n-vertex graphs: its canonical
// representative mask and its labelled-orbit weight n!/|Aut|. Summing Weight
// over a class table reconstitutes the full labelled space 2^C(n,2).
type Class struct {
	Mask   uint64
	Weight uint64
}

// The class tables are deterministic pure functions of n, but expensive to
// build (the n = 9 table canonizes 605,107 candidate graphs), and a serve
// daemon resolves one "canon" spec per unit — so each table is built once
// per process, cached, and shared read-only: every ClassSource reads the
// cached level in place, so opening a source costs O(1) whatever the
// table's size. Levels build on each other (every n-vertex graph is an
// (n-1)-vertex graph plus one vertex), so computing Classes(9) caches 1..8
// along the way.
var classCache struct {
	sync.Mutex
	levels map[int]*classLevel
}

// classLevel is one cached class table in the form the block path reads:
// the representatives' masks transposed into lane chunks, so a source fills
// a block by copying lane words, and their orbit weights n!/|Aut| as uint32
// (at most MaxN! = 10! < 2^32). At n = 9 that is 1.2 MB of lane words and
// 1.1 MB of weights, against 4.4 MB as []Class. A []Class exists only as the
// copy Classes returns and as extendLevel's working input.
type classLevel struct {
	masks   lanes.MaskTable
	weights []uint32
}

func newClassLevel(n int, classes []Class) *classLevel {
	masks := make([]uint64, len(classes))
	weights := make([]uint32, len(classes))
	for i, c := range classes {
		masks[i], weights[i] = c.Mask, uint32(c.Weight)
	}
	return &classLevel{masks: lanes.NewMaskTable(n, masks), weights: weights}
}

// classes untransposes the level into a fresh []Class.
func (l *classLevel) classes() []Class {
	out := make([]Class, len(l.weights))
	var rows [lanes.Lanes]uint64
	for i := range out {
		if i%lanes.Lanes == 0 {
			l.masks.Chunk(i/lanes.Lanes, &rows)
		}
		out[i] = Class{Mask: rows[i%lanes.Lanes], Weight: uint64(l.weights[i])}
	}
	return out
}

// Classes returns the class table for n: one canonical representative per
// isomorphism class of graphs on n labelled vertices, in ascending order of
// canonical mask, each carrying its labelled-orbit weight. The ascending
// mask order is the class-index order of the "canon" source kind — it must
// never change, or every canon plan fingerprint and manifest would strand.
// The returned slice is a copy the caller owns; sources read the shared
// cached table instead.
func Classes(n int) ([]Class, error) {
	table, err := classTable(n)
	if err != nil {
		return nil, err
	}
	return table.classes(), nil
}

// ClassCount returns the number of isomorphism classes of n-vertex graphs —
// OEIS A000088(n) — building (and caching) the table if needed.
func ClassCount(n int) (uint64, error) {
	table, err := classTable(n)
	if err != nil {
		return 0, err
	}
	return uint64(len(table.weights)), nil
}

// classTable returns the cached n-vertex table, building it (and every
// smaller level) on first use. The level is shared by every caller and must
// never be written to.
func classTable(n int) (*classLevel, error) {
	if n < 0 || n > MaxN {
		return nil, fmt.Errorf("canon: n=%d outside class-table range [0,%d]", n, MaxN)
	}
	classCache.Lock()
	defer classCache.Unlock()
	if classCache.levels == nil {
		trivial := []Class{{Mask: 0, Weight: 1}}
		classCache.levels = map[int]*classLevel{
			0: newClassLevel(0, trivial),
			1: newClassLevel(1, trivial),
		}
	}
	// prev carries the level just built into the next extension, so a cold
	// build untransposes at most its one cached starting level.
	var prev []Class
	for m := 2; m <= n; m++ {
		if _, ok := classCache.levels[m]; ok {
			prev = nil
			continue
		}
		if prev == nil {
			prev = classCache.levels[m-1].classes()
		}
		prev, _ = extendLevel(m, prev)
		classCache.levels[m] = newClassLevel(m, prev)
	}
	return classCache.levels[n], nil
}

// extendLevel builds the level-m table from level m-1. Every m-vertex graph
// has a vertex of minimum degree, and deleting it leaves an (m-1)-vertex
// graph, so extending each (m-1)-class representative by a new vertex m whose
// neighborhood S ⊆ {1..m-1} keeps m at minimum degree, and canonizing, covers
// every m-class. With deg′ the degrees in the representative, m has minimum
// degree iff |S| ≤ deg′(u) + [u ∈ S] for every old vertex u; only vertices of
// minimum deg′ can bind, so the bound is min deg′, plus one when S holds all
// of them. That is 605,107 canonizations at m = 9 (29,755 at m = 8), against
// |classes(m-1)|·2^(m-1) = 3,160,576 for every neighborhood and the 2^36
// labelled graphs a naive census would canonize. The filter drops candidates,
// never classes, and any member of a class yields the same canonical form and
// |Aut|, so the table is the same as without it. Each class's weight m!/|Aut|
// is computed here, once per process, by the worker that found the class;
// each worker sorts its classes by mask and a linear merge joins them. It
// returns the table and the number of candidates canonized.
func extendLevel(m int, prev []Class) ([]Class, int) {
	// Re-indexing tables: edge idx in the (m-1)-vertex EdgeIndex space → idx
	// in the m-vertex space, and neighborhood bit j → edge {j+1, m}.
	oldTab, tab := &edgeTables[m-1], &edgeTables[m]
	reIdx := make([]uint8, (m-1)*(m-2)/2)
	for idx := range reIdx {
		e := oldTab.ends[idx]
		reIdx[idx] = tab.index[e[0]][e[1]]
	}
	newEdge := tab.index[m-1][:m-1]

	workers := runtime.GOMAXPROCS(0)
	if workers > len(prev) {
		workers = len(prev)
	}
	mf := Factorial(m)
	parts := make([][]Class, workers)
	counts := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[uint64]uint64)
			canonized := 0
			for i := w; i < len(prev); i += workers {
				base := uint64(0)
				var deg [MaxN]int
				for rm := prev[i].Mask; rm != 0; rm &= rm - 1 {
					idx := bits.TrailingZeros64(rm)
					base |= 1 << reIdx[idx]
					deg[oldTab.ends[idx][0]]++
					deg[oldTab.ends[idx][1]]++
				}
				minDeg, minSet := m, uint64(0)
				for u, d := range deg[:m-1] {
					switch {
					case d < minDeg:
						minDeg, minSet = d, 1<<uint(u)
					case d == minDeg:
						minSet |= 1 << uint(u)
					}
				}
				for sub := uint64(0); sub < 1<<uint(m-1); sub++ {
					bound := minDeg
					if sub&minSet == minSet {
						bound++
					}
					if bits.OnesCount64(sub) > bound {
						continue
					}
					mask := base
					for sb := sub; sb != 0; sb &= sb - 1 {
						mask |= 1 << newEdge[bits.TrailingZeros64(sb)]
					}
					r := MustCanonical(m, mask)
					seen[r.Canon] = r.AutOrder
					canonized++
				}
			}
			part := make([]Class, 0, len(seen))
			for c, a := range seen {
				part = append(part, Class{Mask: c, Weight: mf / a})
			}
			slices.SortFunc(part, func(a, b Class) int { return cmp.Compare(a.Mask, b.Mask) })
			parts[w], counts[w] = part, canonized
		}()
	}
	wg.Wait()

	candidates := 0
	for _, c := range counts {
		candidates += c
	}
	return mergeClasses(parts), candidates
}

// mergeClasses joins mask-sorted tables into one, keeping one entry per mask:
// workers meet the same class through different parents, with the same
// weight.
func mergeClasses(parts [][]Class) []Class {
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]Class, 0, total)
	for {
		next := -1
		for i, part := range parts {
			if len(part) > 0 && (next < 0 || part[0].Mask < parts[next][0].Mask) {
				next = i
			}
		}
		if next < 0 {
			return out
		}
		if c := parts[next][0]; len(out) == 0 || out[len(out)-1].Mask != c.Mask {
			out = append(out, c)
		}
		parts[next] = parts[next][1:]
	}
}
