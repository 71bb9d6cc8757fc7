package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"

	"refereenet/internal/collide"
)

// The answers every op is checked against. Nothing here runs the code under
// test except collide.CountRange, the gray-n9 reference, which is cached on
// disk so a run pays for it at most once per seed.

// connectedLabelled is OEIS A001187, connected labelled graphs on n
// vertices, from the recurrence c(n) = g(n) − Σ_{k=1}^{n−1} C(n−1,k−1)·c(k)·g(n−k)
// with g(n) = 2^C(n,2): a labelled graph is the component of vertex 1 (k
// vertices) plus any graph on the rest. Every term is at most g(n) ≤ 2^45,
// so uint64 arithmetic is exact for n ≤ 10.
func connectedLabelled(n int) uint64 {
	if n < 1 || n > 10 {
		panic(fmt.Sprintf("truth: A001187 wanted for n=%d, exact only for 1..10", n))
	}
	c := make([]uint64, n+1)
	for m := 1; m <= n; m++ {
		sum := uint64(0)
		for k := 1; k < m; k++ {
			sum += binomial(m-1, k-1) * c[k] * allGraphs(m-k)
		}
		c[m] = allGraphs(m) - sum
	}
	return c[n]
}

// labelledForests is OEIS A001858, labelled forests on n vertices:
// f(n) = Σ_{k=1}^{n} C(n−1,k−1)·k^{k−2}·f(n−k), f(0) = 1 — the tree holding
// vertex 1 has k vertices (Cayley: k^{k−2} labelled trees) and the rest is
// any forest.
func labelledForests(n int) uint64 {
	if n < 0 || n > 10 {
		panic(fmt.Sprintf("truth: A001858 wanted for n=%d, exact only for 0..10", n))
	}
	f := make([]uint64, n+1)
	f[0] = 1
	for m := 1; m <= n; m++ {
		for k := 1; k <= m; k++ {
			f[m] += binomial(m-1, k-1) * cayley(k) * f[m-k]
		}
	}
	return f[n]
}

func allGraphs(n int) uint64 { return 1 << uint(n*(n-1)/2) }

func cayley(k int) uint64 {
	if k <= 2 {
		return 1
	}
	t := uint64(1)
	for i := 0; i < k-2; i++ {
		t *= uint64(k)
	}
	return t
}

func binomial(n, k int) uint64 {
	r := uint64(1)
	for i := 1; i <= k; i++ {
		r = r * uint64(n-k+i) / uint64(i)
	}
	return r
}

// edgePairs lists the vertex pairs of an n-vertex graph in the order an edge
// mask's bits name them: (0,1), (0,2), …, (0,n−1), (1,2), … — the
// lexicographic pair order the Gray-rank sources are specified in.
func edgePairs(n int) [][2]int {
	var out [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// countDiameterAtMost counts the graphs of Gray ranks [lo, hi) on n ≤ 16
// vertices whose diameter is at most d (connected, every pair within d
// hops). The walk and the breadth-first search are the benchmark's own:
// rank r is the graph with edge mask r XOR r>>1, consecutive ranks differ in
// edge TrailingZeros(r), and BFS runs over adjacency bitsets.
func countDiameterAtMost(n int, lo, hi uint64, d int) uint64 {
	pairs := edgePairs(n)
	var adj [16]uint16
	mask := lo ^ (lo >> 1)
	for e, p := range pairs {
		if mask>>uint(e)&1 != 0 {
			adj[p[0]] |= 1 << uint(p[1])
			adj[p[1]] |= 1 << uint(p[0])
		}
	}
	all := uint16(1)<<uint(n) - 1
	count := uint64(0)
	for r := lo; r < hi; r++ {
		if r > lo {
			p := pairs[bits.TrailingZeros64(r)]
			adj[p[0]] ^= 1 << uint(p[1])
			adj[p[1]] ^= 1 << uint(p[0])
		}
		if withinHops(adj[:n], all, d) {
			count++
		}
	}
	return count
}

// withinHops reports whether a breadth-first search from every vertex
// reaches all vertices within d levels.
func withinHops(adj []uint16, all uint16, d int) bool {
	for v := range adj {
		seen := uint16(1) << uint(v)
		frontier := seen
		for level := 0; level < d && seen != all; level++ {
			next := uint16(0)
			for f := frontier; f != 0; f &= f - 1 {
				next |= adj[bits.TrailingZeros16(f)]
			}
			frontier = next &^ seen
			seen |= next
		}
		if seen != all {
			return false
		}
	}
	return true
}

// windowRef is one gray-n9 reference entry: the connected and forest counts
// of Gray ranks [Lo, Hi) on n = 9 vertices, as collide.CountRange reports.
type windowRef struct {
	Lo        uint64 `json:"lo"`
	Hi        uint64 `json:"hi"`
	Connected uint64 `json:"connected"`
	Forests   uint64 `json:"forests"`
}

// refFile is the on-disk reference cache for one seed. Sum is the hex
// SHA-256 of the JSON encoding of Windows; a file whose windows were edited
// without it fails to load.
type refFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	N        int         `json:"n"`
	Windows  []windowRef `json:"windows"`
	Sum      string      `json:"sha256"`
}

func windowsSum(ws []windowRef) string {
	buf, err := json.Marshal(ws)
	if err != nil {
		panic(err) // plain integers always marshal
	}
	s := sha256.Sum256(buf)
	return hex.EncodeToString(s[:])
}

var errRefMismatch = errors.New("reference file does not match")

// loadRefFile reads a reference file and checks its checksum and that it
// covers exactly the wanted windows of seed.
func loadRefFile(path string, seed int64, windows [][2]uint64) ([]windowRef, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f refFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Sum != windowsSum(f.Windows) {
		return nil, fmt.Errorf("%s: checksum: %w", path, errRefMismatch)
	}
	if f.Seed != seed || f.N != 9 || len(f.Windows) != len(windows) {
		return nil, fmt.Errorf("%s: seed or window count: %w", path, errRefMismatch)
	}
	for i, w := range windows {
		if f.Windows[i].Lo != w[0] || f.Windows[i].Hi != w[1] {
			return nil, fmt.Errorf("%s: window %d: %w", path, i, errRefMismatch)
		}
	}
	return f.Windows, nil
}

func refName(seed int64) string { return fmt.Sprintf("gray-n9-seed-%d.json", seed) }

// grayN9Refs returns the CountRange reference of every window of seed: from
// the committed cache under testdata/ref, else from the run cache under
// out/ref, else computed on two goroutines and written to the run cache.
func grayN9Refs(dir string, seed int64, windows [][2]uint64) ([]windowRef, error) {
	for _, sub := range []string{"testdata/ref", "out/ref"} {
		refs, err := loadRefFile(filepath.Join(dir, sub, refName(seed)), seed, windows)
		if err == nil {
			return refs, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "bench: ignoring reference cache: %v\n", err)
		}
	}
	refs, err := computeRefs(windows)
	if err != nil {
		return nil, err
	}
	f := refFile{Workload: "gray-n9", Seed: seed, N: 9, Windows: refs, Sum: windowsSum(refs)}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "out/ref")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(out, refName(seed)), append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	return refs, nil
}

func computeRefs(windows [][2]uint64) ([]windowRef, error) {
	refs := make([]windowRef, len(windows))
	errs := make([]error, len(windows))
	var wg sync.WaitGroup
	for g := 0; g < slots; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(windows); i += slots {
				w := windows[i]
				fc, err := collide.CountRange(9, w[0], w[1])
				refs[i] = windowRef{Lo: w[0], Hi: w[1], Connected: fc.Connected, Forests: fc.Forests}
				errs[i] = err
			}
		}(g)
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}
