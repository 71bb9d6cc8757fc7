package main

import (
	"math"
	"testing"
	"time"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, ops := range []int{20, 100, 227, 3578} {
		q := tailQuantile(ops)
		if want := 1 - 10/float64(ops); q != want {
			t.Fatalf("tailQuantile(%d) = %v, want %v", ops, q, want)
		}
		lat := make([]time.Duration, ops)
		for i := range lat {
			lat[i] = time.Duration(ops-i) * time.Millisecond // distinct, unsorted
		}
		s := summarize(lat)
		if s.Beyond != 10 {
			t.Errorf("ops=%d: %d samples beyond the tail, want 10", ops, s.Beyond)
		}
		if s.Tail != float64(ops-10) {
			t.Errorf("ops=%d: tail %v ms, want %d", ops, s.Tail, ops-10)
		}
	}
	if q := tailQuantile(10); q != 0.5 {
		t.Errorf("tailQuantile(10) = %v, want the median fallback", q)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5}, [3]float64{1, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{0.81, 0.79, 0.85, 0.8, 0.9, 0.77, 0.83, 0.8, 0.82, 0.86}, [3]float64{0.7975, 0.815, 0.8525}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", s)
	}
}
