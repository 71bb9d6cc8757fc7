package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

var sourceSink *ClassSource

// TestClassSourceOpenDoesNotCopyTable pins that opening a source reads the
// shared cached table in place instead of copying it: once the n = 8 table
// (12,346 classes) is built, an open allocates only the ClassSource itself,
// whatever window it covers.
func TestClassSourceOpenDoesNotCopyTable(t *testing.T) {
	if _, err := ClassCount(8); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ lo, hi uint64 }{{0, 0}, {100, 5000}, {12345, 12346}} {
		open := func() {
			src, err := NewClassSource(8, w.lo, w.hi)
			if err != nil {
				t.Fatal(err)
			}
			sourceSink = src
		}
		if allocs := testing.AllocsPerRun(100, open); allocs > 1 {
			t.Errorf("[%d,%d): NewClassSource allocates %.1f times per open, want ≤ 1", w.lo, w.hi, allocs)
		}
		const opens = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < opens; i++ {
			open()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / opens; per >= 1024 {
			t.Errorf("[%d,%d): NewClassSource allocates %d B per open, want < 1 KiB", w.lo, w.hi, per)
		}
	}
	sourceSink = nil
}

// drainRange sums the class count and orbit weights a source yields over the
// class-index range [lo, hi) of the n-vertex table.
func drainRange(t *testing.T, n int, lo, hi uint64) (count int, weights uint64) {
	src, err := NewClassSource(n, lo, hi)
	if err != nil {
		t.Error(err)
		return 0, 0
	}
	for g := src.Next(); g != nil; g = src.Next() {
		count++
		weights += src.Weight()
	}
	return count, weights
}

// TestClassesCopyIsCallerOwned: Classes hands out a copy, so scribbling over
// it cannot reach the shared table every source reads. Two goroutines then
// drain overlapping windows of that table while a third scribbles over a
// fresh copy — under -race any aliasing between copy and table is a report.
func TestClassesCopyIsCallerOwned(t *testing.T) {
	const n, want, space = 7, 1044, uint64(1) << 21
	mine, err := Classes(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mine {
		mine[i] = Class{Mask: ^uint64(0), Weight: 0}
	}

	fresh, err := Classes(n)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for i, c := range fresh {
		if i > 0 && c.Mask <= fresh[i-1].Mask {
			t.Fatalf("class %d: mask %#x not above %#x", i, c.Mask, fresh[i-1].Mask)
		}
		sum += c.Weight
	}
	if len(fresh) != want || sum != space {
		t.Errorf("fresh Classes(%d): %d classes, Σ weight %d; want A000088(%d) = %d and 2^21", n, len(fresh), sum, n, want)
	}
	if count, weights := drainRange(t, n, 0, 0); count != want || weights != space {
		t.Errorf("NewClassSource(%d, 0, 0): %d classes, Σ weight %d; want %d and 2^21", n, count, weights, want)
	}

	windows := []struct{ lo, hi uint64 }{{0, 700}, {300, want}}
	type result struct {
		count   int
		weights uint64
	}
	got := make([]result, len(windows))
	var wg sync.WaitGroup
	for i, w := range windows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].count, got[i].weights = drainRange(t, n, w.lo, w.hi)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Classes(n)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range c {
			c[i].Weight = 0
		}
	}()
	wg.Wait()
	for i, w := range windows {
		var ws uint64
		for _, c := range fresh[w.lo:w.hi] {
			ws += c.Weight
		}
		if got[i].count != int(w.hi-w.lo) || got[i].weights != ws {
			t.Errorf("[%d,%d): drained %d classes, Σ weight %d; want %d and %d", w.lo, w.hi, got[i].count, got[i].weights, w.hi-w.lo, ws)
		}
	}
}

// classDigests pins the class tables byte for byte: the SHA-256 over every
// class's Mask then Weight, each as 8 little-endian bytes, in table order.
// The ascending-mask order is the class-index order of every canon plan and
// manifest, so any change to the generator that moves a class, drops one or
// alters a weight fails here.
var classDigests = map[int]string{
	7: "1597719f61c72cc49bb8310ef64c1c0f373ed67ffaa31264b938875635e1c725",
	8: "c4acbab9d40a33c52723f5f43e4bd0edfdad55281593b77a8b9e2d6bddae5703",
	9: "360140ce94c9426959cc5e0025dbf11322c06f4b043dfa2932853ce59a54ad45",
}

func TestClassTableDigest(t *testing.T) {
	for n := 7; n <= censusTop(); n++ {
		table, err := Classes(n)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var rec [16]byte
		for _, c := range table {
			binary.LittleEndian.PutUint64(rec[:8], c.Mask)
			binary.LittleEndian.PutUint64(rec[8:], c.Weight)
			h.Write(rec[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != classDigests[n] {
			t.Errorf("n=%d: class table digest %s, want %s", n, got, classDigests[n])
		}
	}
}

// BenchmarkExtendLevel times building level m from the cached level m-1
// table — the whole cost of a cold Classes(m) once m-1 is resident — and
// reports the candidate graphs canonized per build. It fails on a build
// that does not yield A000088(m) classes from the known candidate count, so
// a one-iteration run is a smoke test of the class build.
func BenchmarkExtendLevel(b *testing.B) {
	candidatesAt := map[int]int{8: 29755, 9: 605107}
	for _, m := range []int{8, 9} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			prev, err := Classes(m - 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var table []Class
			var candidates int
			for i := 0; i < b.N; i++ {
				table, candidates = extendLevel(m, prev)
			}
			b.StopTimer()
			if uint64(len(table)) != a000088[m] || candidates != candidatesAt[m] {
				b.Fatalf("m=%d: %d classes from %d candidates, want %d from %d",
					m, len(table), candidates, a000088[m], candidatesAt[m])
			}
			b.ReportMetric(float64(candidates), "candidates/op")
		})
	}
}
