package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantile is the reporting rule for op_tail_ms: the 1 − 10/ops
// quantile, the highest one with at least ten samples beyond it. Below 20
// samples it falls back to the median.
func tailQuantile(ops int) float64 {
	if ops < 20 {
		return 0.5
	}
	return 1 - 10/float64(ops)
}

// quantile returns the nearest-rank q-quantile of sorted: the smallest value
// with at least a q share of the samples at or below it. At q = 1 − 10/n
// that is sorted[n−11], so exactly ten samples lie beyond it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), the spread rule the benchmark's stability
// check is defined by. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencySummary is the median, p90 and tail of a set of op latencies, with
// the tail's quantile and the number of samples beyond it.
type latencySummary struct {
	P50, P90, Tail float64 // milliseconds
	Q              float64
	Beyond         int
	N              int
}

func summarize(lat []time.Duration) latencySummary {
	xs := make([]float64, len(lat))
	for i, d := range lat {
		xs[i] = ms(d)
	}
	s := sortedCopy(xs)
	q := tailQuantile(len(s))
	tail := quantile(s, q)
	beyond := 0
	for _, x := range s {
		if x > tail {
			beyond++
		}
	}
	return latencySummary{P50: median(s), P90: quantile(s, 0.9), Tail: tail, Q: q, Beyond: beyond, N: len(s)}
}
