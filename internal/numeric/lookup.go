package numeric

import (
	"fmt"
	mathbits "math/bits"
)

// Lookup is the paper's Lemma 3 decoder: a precomputed table mapping the
// power sums of every subset of {1..n} of size ≤ k to the subset itself.
// Query time is a hash lookup; the table has Σ_{i≤k} C(n,i) entries, so
// this is practical only for small n^k. Wright's theorem guarantees the
// keys are distinct, which NewLookup verifies as it builds.
type Lookup struct {
	n, k, words int
	table       map[lookupKey][]int
}

// lookupKey is a subset's size and its k power sums at the table's word
// width: a fixed comparable value, so the words index the map as they are.
type lookupKey struct {
	d    int
	sums [accumInlineWords]uint64
}

// NewLookup enumerates all subsets of {1..n} with at most k elements and
// indexes them by their power sums. maxEntries guards against runaway
// memory (0 means no guard); exceeding it returns an error.
func NewLookup(n, k, maxEntries int) (*Lookup, error) {
	total := 0
	for i := 0; i <= k; i++ {
		c, err := binomialChecked(n, i)
		if err != nil {
			return nil, err
		}
		total += c
		if maxEntries > 0 && total > maxEntries {
			return nil, fmt.Errorf("numeric: lookup table needs %d+ entries, cap %d", total, maxEntries)
		}
	}
	var acc PowerSumAccumulator
	acc.Reset(n, k)
	if k*acc.words > accumInlineWords {
		return nil, fmt.Errorf("numeric: lookup keys for n=%d, k=%d exceed %d words", n, k, accumInlineWords)
	}
	l := &Lookup{n: n, k: k, words: acc.words, table: make(map[lookupKey][]int, total)}
	subset := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		key, _ := l.key(len(subset), &acc)
		if prev, dup := l.table[key]; dup {
			// Cannot happen by Wright's theorem; if it does, the key is broken.
			panic(fmt.Sprintf("numeric: power sums of %v and %v collide", prev, subset))
		}
		l.table[key] = append([]int(nil), subset...)
		if len(subset) == k {
			return
		}
		for v := start; v <= n; v++ {
			subset = append(subset, v)
			acc.Add(v)
			rec(v + 1)
			acc.Remove(v)
			subset = subset[:len(subset)-1]
		}
	}
	rec(1)
	return l, nil
}

// Decode appends to dst the unique subset of size d whose first k power
// sums are those in sums, or returns an error when no such subset exists.
func (l *Lookup) Decode(dst []int, d int, sums *PowerSumAccumulator) ([]int, error) {
	if d > l.k {
		return dst, fmt.Errorf("numeric: degree %d exceeds table bound k=%d", d, l.k)
	}
	if sums.k < l.k {
		return dst, fmt.Errorf("numeric: need %d sums, have %d", l.k, sums.k)
	}
	key, ok := l.key(d, sums)
	set, found := l.table[key]
	if !ok || !found {
		return dst, fmt.Errorf("numeric: no %d-subset of [1,%d] has these power sums", d, l.n)
	}
	return append(dst, set...), nil
}

// Entries returns the number of subsets indexed.
func (l *Lookup) Entries() int { return len(l.table) }

// key packs d and a's first k sums at the table's word width; it reports
// false when a sum needs more words, so no subset of {1..n} has it.
func (l *Lookup) key(d int, a *PowerSumAccumulator) (lookupKey, bool) {
	key := lookupKey{d: d}
	for p := 1; p <= l.k; p++ {
		for i, w := range a.Sum(p) {
			if i < l.words {
				key.sums[(p-1)*l.words+i] = w
			} else if w != 0 {
				return key, false
			}
		}
	}
	return key, true
}

// binomialChecked returns C(n, k), or an error past 2^40. It walks
// C(n, i+1) = C(n, i)·(n−i)/(i+1) up to min(k, n−k), where the values only
// grow, so the bound checked at each step bounds the result.
func binomialChecked(n, k int) (int, error) {
	if k < 0 || n < 0 {
		return 0, fmt.Errorf("numeric: binomial(%d,%d) undefined", n, k)
	}
	if k > n {
		return 0, nil
	}
	r := uint64(1)
	for i := 0; i < min(k, n-k); i++ {
		hi, lo := mathbits.Mul64(r, uint64(n-i))
		if hi >= uint64(i+1) {
			return 0, fmt.Errorf("numeric: binomial(%d,%d) too large", n, k)
		}
		if r, _ = mathbits.Div64(hi, lo, uint64(i+1)); r > 1<<40 {
			return 0, fmt.Errorf("numeric: binomial(%d,%d) too large", n, k)
		}
	}
	return int(r), nil
}
