package engine_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/canon"
	"refereenet/internal/collide"
	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
)

// bruteCount counts the labelled graphs on n vertices with property has,
// building each graph's adjacency matrix straight from its edge mask. It
// shares no code with internal/graph or internal/core: the bit-to-pair
// order is this function's own, which cannot change a count over all masks.
func bruteCount(n int, has func(adj [][]bool) bool) uint64 {
	var pairs [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	var count uint64
	for mask := uint64(0); mask < 1<<uint(len(pairs)); mask++ {
		for b, p := range pairs {
			on := mask>>uint(b)&1 == 1
			adj[p[0]][p[1]], adj[p[1]][p[0]] = on, on
		}
		if has(adj) {
			count++
		}
	}
	return count
}

func hasTriangleBrute(adj [][]bool) bool {
	n := len(adj)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				if adj[i][j] && adj[j][k] && adj[i][k] {
					return true
				}
			}
		}
	}
	return false
}

// hasSquareBrute: G contains a C4 iff two distinct vertices (opposite
// corners) share at least two neighbours.
func hasSquareBrute(adj [][]bool) bool {
	n := len(adj)
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			common := 0
			for b := 0; b < n; b++ {
				if adj[a][b] && adj[c][b] {
					common++
				}
			}
			if common >= 2 {
				return true
			}
		}
	}
	return false
}

// diamAtMost3Brute runs a BFS from every vertex; a disconnected graph has
// infinite diameter.
func diamAtMost3Brute(adj [][]bool) bool {
	n := len(adj)
	dist := make([]int, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if adj[u][v] && dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for _, d := range dist {
			if d < 0 || d > 3 {
				return false
			}
		}
	}
	return true
}

// TestUndecidablePredicatesIndependentCounts ties the three predicates the
// paper proves undecidable by frugal protocols to counts computed without
// the repo's graph code, and demands that each oracle protocol accepts
// exactly that many labelled graphs at n = 1…6 on both the vector and the
// scalar batch path. The triangle-free complements 1, 2, 7, 41, 388, 5789
// are OEIS A006785.
func TestUndecidablePredicatesIndependentCounts(t *testing.T) {
	cases := []struct {
		protocol string
		has      func(adj [][]bool) bool
		want     [6]uint64 // n = 1…6
	}{
		{"oracle-triangle", hasTriangleBrute, [6]uint64{0, 0, 1, 23, 636, 26979}},
		{"oracle-square", hasSquareBrute, [6]uint64{0, 0, 0, 10, 476, 24784}},
		{"oracle-diam3", diamAtMost3Brute, [6]uint64{1, 1, 4, 38, 668, 23464}},
	}
	for _, c := range cases {
		for n := 1; n <= 6; n++ {
			want := c.want[n-1]
			if got := bruteCount(n, c.has); got != want {
				t.Fatalf("%s n=%d: brute-force count %d, want %d", c.protocol, n, got, want)
			}
			total := uint64(1) << uint(n*(n-1)/2)
			for _, noVector := range []bool{false, true} {
				p, ok := engine.New(c.protocol, engine.Config{N: n})
				if !ok {
					t.Fatalf("protocol %q not registered", c.protocol)
				}
				b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: true, MaxN: n, NoVector: noVector})
				st := b.Run(collide.NewGraySource(n))
				b.Close()
				if st.Graphs != total || st.Accepted != want || st.Rejected != total-want || st.Errors != 0 {
					t.Errorf("%s n=%d NoVector=%v: %+v, want %d of %d accepted",
						c.protocol, n, noVector, st, want, total)
				}
			}
		}
	}
}

// diam3Quotient is Σ n!/|Aut| over the diameter ≤ 3 isomorphism classes:
// the labelled count, n = 1…9. The n = 9 value has never been reached by a
// labelled walk (2^36 graphs); it is the quotient column below.
var diam3Quotient = [9]uint64{1, 1, 4, 38, 668, 23464, 1641976, 226418312, 61417339232}

// quotientBrute sums the orbit weights n!/|Aut| of the n-vertex classes
// whose representative has the property, decided on the representative's
// adjacency matrix. Only the mask-to-pair order comes from internal/graph
// (a representative's mask is only meaningful in that order).
func quotientBrute(t *testing.T, n int, has func(adj [][]bool) bool) uint64 {
	t.Helper()
	classes, err := canon.Classes(n)
	if err != nil {
		t.Fatal(err)
	}
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	var sum uint64
	for _, c := range classes {
		for e := 0; e < n*(n-1)/2; e++ {
			u, v := graph.EdgePair(n, e)
			on := c.Mask>>uint(e)&1 == 1
			adj[u-1][v-1], adj[v-1][u-1] = on, on
		}
		if has(adj) {
			sum += c.Weight
		}
	}
	return sum
}

// TestDiameterQuotientIndependentCounts checks diameter ≤ 3 through the
// isomorphism quotient up to n = 9 (n = 8 under -short): one brute-force
// BFS per class representative, weighted by its orbit size, must sum to
// the weighted vector sweep of oracle-diam3 over the same class table. The
// verdict is diamAtMost3Brute.
func TestDiameterQuotientIndependentCounts(t *testing.T) {
	top := 9
	if testing.Short() {
		top = 8
	}
	for n := 1; n <= top; n++ {
		brute := quotientBrute(t, n, diamAtMost3Brute)
		if want := diam3Quotient[n-1]; brute != want {
			t.Errorf("n=%d: brute force over the classes counts %d, want %d", n, brute, want)
		}

		p, ok := engine.New("oracle-diam3", engine.Config{N: n})
		if !ok {
			t.Fatal("oracle-diam3 not registered")
		}
		b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: true, MaxN: n})
		if !b.Vectorized() {
			t.Fatal("oracle-diam3 batch did not engage the vector path")
		}
		src, err := canon.NewClassSource(n, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := b.Run(src)
		b.Close()
		if total := uint64(1) << uint(n*(n-1)/2); st.Graphs != total || st.Accepted != brute || st.Rejected != total-brute {
			t.Errorf("n=%d: weighted vector sweep %+v, want %d of %d accepted", n, st, brute, total)
		}
	}
}

// connectedBrute: a BFS from vertex 0 reaches every vertex.
func connectedBrute(adj [][]bool) bool {
	n := len(adj)
	seen := make([]bool, n)
	seen[0] = true
	stack, reached := []int{0}, 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 0; v < n; v++ {
			if adj[u][v] && !seen[v] {
				seen[v] = true
				reached++
				stack = append(stack, v)
			}
		}
	}
	return reached == n
}

// forestBrute: a graph is acyclic iff |E| = n − (number of components).
func forestBrute(adj [][]bool) bool {
	n := len(adj)
	edges := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if adj[i][j] {
				edges++
			}
		}
	}
	seen := make([]bool, n)
	components := 0
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		components++
		seen[s] = true
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := 0; v < n; v++ {
				if adj[u][v] && !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return edges == n-components
}

// TestConnectivityQuotientIndependentCounts adds canon-n9's two ops and the
// paper's triangle and square predicates to the quotient columns: at n = 9
// (n = 8 under -short), connected graphs (A001187: 66,296,291,072), forests
// (A001858: 10,026,505), graphs with a triangle and graphs with a 4-cycle
// counted by a brute-force verdict per class representative times its orbit
// weight must equal the weighted vector sweep of oracle-conn, oracle-forest,
// oracle-triangle and oracle-square, cut by engine.SplitRange into 7 units
// whose inner bounds are not multiples of 64 (so blocks load unaligned table
// windows) and summed over engine.ExecuteShard. The n = 8 triangle and
// square counts match a labelled brute force over all 2^28 graphs.
func TestConnectivityQuotientIndependentCounts(t *testing.T) {
	n := 9
	if testing.Short() {
		n = 8
	}
	total, err := canon.ClassCount(n)
	if err != nil {
		t.Fatal(err)
	}
	units := engine.SplitRange(0, total, 7)
	if len(units) != 7 {
		t.Fatalf("n=%d: %d classes cut into %d units, want 7", n, total, len(units))
	}
	for _, u := range units[1:] {
		if u[0]%64 == 0 {
			t.Fatalf("n=%d: unit bound %d is a multiple of 64", n, u[0])
		}
	}
	labelled := uint64(1) << uint(n*(n-1)/2)
	for _, tc := range []struct {
		protocol string
		has      func(adj [][]bool) bool
		want     map[int]uint64
	}{
		{"oracle-conn", connectedBrute, map[int]uint64{8: 251548592, 9: 66296291072}},
		{"oracle-forest", forestBrute, map[int]uint64{8: 561948, 9: 10026505}},
		{"oracle-triangle", hasTriangleBrute, map[int]uint64{8: 263753186, 9: 68473128621}},
		{"oracle-square", hasSquareBrute, map[int]uint64{8: 263835548, 9: 68545272008}},
	} {
		p, ok := engine.New(tc.protocol, engine.Config{N: n})
		if !ok {
			t.Fatalf("protocol %q not registered", tc.protocol)
		}
		b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: true, MaxN: n})
		vector := b.Vectorized()
		b.Close()
		if !vector {
			t.Fatalf("%s n=%d: batch did not engage the vector path", tc.protocol, n)
		}
		brute := quotientBrute(t, n, tc.has)
		if brute != tc.want[n] {
			t.Errorf("%s n=%d: brute force over the classes counts %d, want %d", tc.protocol, n, brute, tc.want[n])
		}
		var st engine.BatchStats
		for _, u := range units {
			got, err := engine.ExecuteShard(engine.ShardSpec{
				Protocol: tc.protocol,
				Decide:   true,
				Source:   engine.SourceSpec{Kind: "canon", N: n, Lo: u[0], Hi: u[1]},
			})
			if err != nil {
				t.Fatalf("%s n=%d [%d,%d): %v", tc.protocol, n, u[0], u[1], err)
			}
			st.Merge(got)
		}
		if st.Graphs != labelled || st.Accepted != brute || st.Rejected != labelled-brute || st.Errors != 0 {
			t.Errorf("%s n=%d: weighted vector sweep %+v, want %d of %d accepted", tc.protocol, n, st, brute, labelled)
		}
	}
}

// peelBrute reports whether repeatedly deleting a vertex of remaining
// degree ≤ k (with co, or of remaining co-degree ≤ k) empties the graph:
// degeneracy ≤ k, or generalized degeneracy ≤ k. Deleting a vertex only
// lowers the others' degrees and co-degrees, so a prunable vertex stays
// prunable and the greedy order cannot matter.
func peelBrute(adj [][]bool, k int, co bool) bool {
	n := len(adj)
	gone := make([]bool, n)
	for left := n; left > 0; left-- {
		x := -1
		for v := 0; v < n && x < 0; v++ {
			if gone[v] {
				continue
			}
			d := 0
			for u := 0; u < n; u++ {
				if !gone[u] && adj[v][u] {
					d++
				}
			}
			if d <= k || co && left-1-d <= k {
				x = v
			}
		}
		if x < 0 {
			return false
		}
		gone[x] = true
	}
	return true
}

// theorem5Quotient[n-1] is the number of labelled n-vertex graphs of
// degeneracy ≤ k for k = 1…4, then of generalized degeneracy ≤ k for
// k = 1, 2, from peelBrute over the isomorphism classes weighted by orbit
// size. The k = 1 column is the forests, OEIS A001858.
var theorem5Quotient = [9][6]uint64{
	{1, 1, 1, 1, 1, 1},
	{2, 2, 2, 2, 2, 2},
	{7, 8, 8, 8, 8, 8},
	{38, 63, 64, 64, 64, 64},
	{291, 943, 1023, 1024, 1012, 1024},
	{2932, 25324, 32536, 32767, 30144, 32768},
	{36961, 1132422, 2032720, 2096521, 1507956, 2097152},
	{561948, 78012107, 242025288, 267923849, 111270856, 266490926},
	{10026505, 7727370119, 52071246155, 68073010211, 11044851848, 64404731224},
}

// TestTheorem5QuotientIndependentCounts runs Theorem 5's referee on every
// isomorphism class representative up to n = 9 (n = 8 under -short): the
// transcript of each of DegeneracyProtocol{K: 1…4}, ForestProtocol and
// GeneralizedDegeneracyProtocol{K: 1, 2} must reconstruct the
// representative exactly where peelBrute accepts it and fail with
// core.ErrDegeneracyExceeded everywhere else, and the accepted orbit
// weights must sum to theorem5Quotient. Forest is the k = 1 column.
func TestTheorem5QuotientIndependentCounts(t *testing.T) {
	top := 9
	if testing.Short() {
		top = 8
	}
	type column struct {
		name string
		p    interface {
			engine.Reconstructor
			engine.BufferedLocal
		}
		k     int
		co    bool
		want  int // column of theorem5Quotient
		count uint64
	}
	newColumns := func() []*column {
		cols := []*column{{name: "forest", p: core.ForestProtocol{}, k: 1}}
		for k := 1; k <= 4; k++ {
			cols = append(cols, &column{name: fmt.Sprintf("degeneracy k=%d", k), p: &core.DegeneracyProtocol{K: k}, k: k, want: k - 1})
		}
		for k := 1; k <= 2; k++ {
			cols = append(cols, &column{name: fmt.Sprintf("generalized k=%d", k), p: &core.GeneralizedDegeneracyProtocol{K: k}, k: k, co: true, want: 3 + k})
		}
		return cols
	}
	for n := 1; n <= top; n++ {
		classes, err := canon.Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		// The classes are dealt round-robin to one worker per core, each
		// with its own columns, adjacency, messages, arena and writer; a
		// worker reports its first failure with t.Errorf and stops.
		workers := min(runtime.GOMAXPROCS(0), len(classes))
		parts := make([][]*column, workers)
		var wg sync.WaitGroup
		for wk := range parts {
			cols := newColumns()
			parts[wk] = cols
			wg.Add(1)
			go func() {
				defer wg.Done()
				adj := make([][]bool, n)
				for i := range adj {
					adj[i] = make([]bool, n)
				}
				msgs, nbrs := make([]bits.String, n), make([][]int, n+1)
				var w bits.Writer
				var arena []byte
				for i := wk; i < len(classes); i += workers {
					c := classes[i]
					for e := 0; e < n*(n-1)/2; e++ {
						u, v := graph.EdgePair(n, e)
						on := c.Mask>>uint(e)&1 == 1
						adj[u-1][v-1], adj[v-1][u-1] = on, on
					}
					g := graph.FromEdgeMask(n, c.Mask)
					for v := 1; v <= n; v++ {
						nbrs[v] = g.Neighbors(v)
					}
					for _, col := range cols {
						arena = arena[:0]
						for v := 1; v <= n; v++ {
							w.Reset()
							col.p.AppendLocalMessage(&w, n, v, nbrs[v])
							msgs[v-1], arena = w.AppendTo(arena)
						}
						h, err := col.p.Reconstruct(n, msgs)
						switch ok := peelBrute(adj, col.k, col.co); {
						case ok && (err != nil || !h.Equal(g)):
							t.Errorf("n=%d %s mask %#x: brute force peels it, referee: %v", n, col.name, c.Mask, err)
							return
						case !ok && !errors.Is(err, core.ErrDegeneracyExceeded):
							t.Errorf("n=%d %s mask %#x: brute force gets stuck, referee: %v", n, col.name, c.Mask, err)
							return
						case ok:
							col.count += c.Weight
						}
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, col := range newColumns() {
			for _, cols := range parts {
				col.count += cols[i].count
			}
			if want := theorem5Quotient[n-1][col.want]; col.count != want {
				t.Errorf("n=%d %s: %d, want %d", n, col.name, col.count, want)
			}
		}
	}
}
