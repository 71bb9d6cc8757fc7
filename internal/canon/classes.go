package canon

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"refereenet/internal/graph"
)

// Class is one isomorphism class of n-vertex graphs: its canonical
// representative mask and its labelled-orbit weight n!/|Aut|. Summing Weight
// over a class table reconstitutes the full labelled space 2^C(n,2).
type Class struct {
	Mask   uint64
	Weight uint64
}

// The class tables are deterministic pure functions of n, but expensive to
// build (the n = 9 table canonizes ~3.2·10⁶ candidate graphs), and a serve
// daemon resolves one "canon" spec per unit — so each table is built once
// per process, cached, and shared read-only: every ClassSource slices the
// cached []Class in place, so opening a source costs O(1) whatever the
// table's size. Levels build on each other (every n-vertex graph is an
// (n-1)-vertex graph plus one vertex), so computing Classes(9) caches 1..8
// along the way.
var classCache struct {
	sync.Mutex
	levels map[int][]Class
}

// Classes returns the class table for n: one canonical representative per
// isomorphism class of graphs on n labelled vertices, in ascending order of
// canonical mask, each carrying its labelled-orbit weight. The ascending
// mask order is the class-index order of the "canon" source kind — it must
// never change, or every canon plan fingerprint and manifest would strand.
// The returned slice is a copy the caller owns; sources use the shared
// cached table instead.
func Classes(n int) ([]Class, error) {
	table, err := classTable(n)
	if err != nil {
		return nil, err
	}
	return append([]Class(nil), table...), nil
}

// ClassCount returns the number of isomorphism classes of n-vertex graphs —
// OEIS A000088(n) — building (and caching) the table if needed.
func ClassCount(n int) (uint64, error) {
	table, err := classTable(n)
	if err != nil {
		return 0, err
	}
	return uint64(len(table)), nil
}

// classTable returns the cached n-vertex table, building it (and every
// smaller level) on first use. The slice is shared by every caller and must
// never be written to.
func classTable(n int) ([]Class, error) {
	if n < 0 || n > MaxN {
		return nil, fmt.Errorf("canon: n=%d outside class-table range [0,%d]", n, MaxN)
	}
	classCache.Lock()
	defer classCache.Unlock()
	if classCache.levels == nil {
		classCache.levels = map[int][]Class{
			0: {{Mask: 0, Weight: 1}},
			1: {{Mask: 0, Weight: 1}},
		}
	}
	for m := 2; m <= n; m++ {
		if _, ok := classCache.levels[m]; !ok {
			classCache.levels[m] = extendLevel(m, classCache.levels[m-1])
		}
	}
	return classCache.levels[n], nil
}

// extendLevel builds the level-m table from level m-1: every m-vertex graph
// contains an (m-1)-vertex induced subgraph (drop any vertex), so extending
// each (m-1)-class representative by a new vertex m with every neighborhood
// ⊆ {1..m-1} and canonizing covers every m-class. That is
// |classes(m-1)|·2^(m-1) canonizations — 3.16·10⁶ at m = 9 versus the 2^36
// labelled graphs a naive census would canonize. Each class's weight
// m!/|Aut| is computed here, once per process.
func extendLevel(m int, prev []Class) []Class {
	// Re-indexing tables: edge idx in the (m-1)-vertex EdgeIndex space →
	// idx in the m-vertex space, and neighborhood bit j → edge {j+1, m}.
	oldEdges := (m - 1) * (m - 2) / 2
	reIdx := make([]uint, oldEdges)
	for idx := 0; idx < oldEdges; idx++ {
		u, v := graph.EdgePair(m-1, idx)
		reIdx[idx] = uint(graph.EdgeIndex(m, u, v))
	}
	newEdge := make([]uint, m-1)
	for j := 0; j < m-1; j++ {
		newEdge[j] = uint(graph.EdgeIndex(m, j+1, m))
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(prev) {
		workers = len(prev)
	}
	parts := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := make(map[uint64]uint64)
			for i := w; i < len(prev); i += workers {
				base := uint64(0)
				for rm := prev[i].Mask; rm != 0; rm &= rm - 1 {
					base |= 1 << reIdx[bits.TrailingZeros64(rm)]
				}
				for sub := uint64(0); sub < 1<<uint(m-1); sub++ {
					mask := base
					for sb := sub; sb != 0; sb &= sb - 1 {
						mask |= 1 << newEdge[bits.TrailingZeros64(sb)]
					}
					r := MustCanonical(m, mask)
					seen[r.Canon] = r.AutOrder
				}
			}
			parts[w] = seen
		}()
	}
	wg.Wait()

	merged := parts[0]
	if merged == nil {
		merged = make(map[uint64]uint64)
	}
	for _, part := range parts[1:] {
		for c, a := range part {
			merged[c] = a
		}
	}
	table := make([]Class, 0, len(merged))
	for c := range merged {
		table = append(table, Class{Mask: c})
	}
	slices.SortFunc(table, func(a, b Class) int { return cmp.Compare(a.Mask, b.Mask) })
	mf := Factorial(m)
	for i := range table {
		table[i].Weight = mf / merged[table[i].Mask]
	}
	return table
}
