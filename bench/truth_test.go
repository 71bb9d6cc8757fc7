package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"refereenet/internal/collide"
	"refereenet/internal/graph"
)

func TestOEISRecurrences(t *testing.T) {
	// OEIS A001187 (connected labelled graphs) and A001858 (labelled forests).
	connected := []uint64{1, 1, 4, 38, 728, 26704, 1866256, 251548592, 66296291072, 34496488594816}
	forests := []uint64{1, 1, 2, 7, 38, 291, 2932, 36961, 561948, 10026505, 205608536}
	for n := 1; n <= 10; n++ {
		if got := connectedLabelled(n); got != connected[n-1] {
			t.Errorf("A001187(%d) = %d, want %d", n, got, connected[n-1])
		}
	}
	for n := 0; n <= 10; n++ {
		if got := labelledForests(n); got != forests[n] {
			t.Errorf("A001858(%d) = %d, want %d", n, got, forests[n])
		}
	}
}

// TestDiameterCounterAgreesWithGraph cross-checks the benchmark's own Gray
// walk and BFS against the graph package on every labelled graph with
// n ≤ 5, and on a ragged window of n = 7.
func TestDiameterCounterAgreesWithGraph(t *testing.T) {
	check := func(n int, lo, hi uint64) {
		want := uint64(0)
		for r := lo; r < hi; r++ {
			if graph.FromEdgeMask(n, r^(r>>1)).DiameterAtMost(3) {
				want++
			}
		}
		if got := countDiameterAtMost(n, lo, hi, 3); got != want {
			t.Errorf("n=%d ranks [%d,%d): %d graphs of diameter ≤ 3, graph package says %d", n, lo, hi, got, want)
		}
	}
	for n := 1; n <= 5; n++ {
		check(n, 0, allGraphs(n))
	}
	check(7, 123457, 123457+3000)
}

func writeRef(t *testing.T, path string, f refFile) {
	t.Helper()
	buf, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTamperedReferenceIsRejected edits one count of a valid reference
// file; the checksum must refuse it.
func TestTamperedReferenceIsRejected(t *testing.T) {
	windows := [][2]uint64{{0, 64}, {64, 128}}
	refs := []windowRef{{Lo: 0, Hi: 64, Connected: 1, Forests: 2}, {Lo: 64, Hi: 128, Connected: 3, Forests: 4}}
	path := filepath.Join(t.TempDir(), "ref.json")
	writeRef(t, path, refFile{Workload: "gray-n9", Seed: 7, N: 9, Windows: refs, Sum: windowsSum(refs)})
	if _, err := loadRefFile(path, 7, windows); err != nil {
		t.Fatalf("valid file refused: %v", err)
	}
	tampered := append([]windowRef(nil), refs...)
	tampered[1].Connected++
	writeRef(t, path, refFile{Workload: "gray-n9", Seed: 7, N: 9, Windows: tampered, Sum: windowsSum(refs)})
	if _, err := loadRefFile(path, 7, windows); !errors.Is(err, errRefMismatch) {
		t.Fatalf("tampered file loaded (err %v)", err)
	}
	if _, err := loadRefFile(path, 8, windows); !errors.Is(err, errRefMismatch) {
		t.Fatalf("file for another seed loaded (err %v)", err)
	}
}

// TestCommittedReferences loads the committed gray-n9 references for seeds
// 1–3 and recomputes one window of each with collide.CountRange.
func TestCommittedReferences(t *testing.T) {
	w := newSweepWorkloads(fullSizes(), ".")["gray-n9"]
	for seed := int64(1); seed <= 3; seed++ {
		windows := flatten(w.grayN9Sets(seed))
		refs, err := loadRefFile(filepath.Join("testdata/ref", refName(seed)), seed, windows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := refs[int(seed)*5%len(refs)]
		fc, err := collide.CountRange(9, r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if fc.Connected != r.Connected || fc.Forests != r.Forests {
			t.Errorf("seed %d window [%d,%d): reference says %d connected, %d forests; CountRange %d, %d",
				seed, r.Lo, r.Hi, r.Connected, r.Forests, fc.Connected, fc.Forests)
		}
	}
}
