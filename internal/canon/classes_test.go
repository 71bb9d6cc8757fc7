package canon

import (
	"runtime"
	"sync"
	"testing"
)

var sourceSink *ClassSource

// TestClassSourceOpenDoesNotCopyTable pins that opening a source slices the
// shared cached table instead of copying it: once the n = 8 table (12,346
// classes, ~197 KB) is built, an open allocates only the ClassSource itself,
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
