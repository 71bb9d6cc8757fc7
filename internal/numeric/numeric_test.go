package numeric

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestPowerSumsSmall(t *testing.T) {
	sums := PowerSums([]int{2, 5}, 3)
	want := []int64{7, 29, 133} // 2+5, 4+25, 8+125
	for p, w := range want {
		if sums[p].Int64() != w {
			t.Errorf("S_%d = %v, want %d", p+1, sums[p], w)
		}
	}
}

func TestPowerSumsEmpty(t *testing.T) {
	sums := PowerSums(nil, 2)
	if sums[0].Sign() != 0 || sums[1].Sign() != 0 {
		t.Error("empty set should have zero power sums")
	}
}

func TestPowerSumsMatchVandermonde(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(20)
		k := 1 + rng.Intn(4)
		x := make([]bool, n+1)
		var ids []int
		for i := 1; i <= n; i++ {
			if rng.Intn(2) == 0 {
				x[i] = true
				ids = append(ids, i)
			}
		}
		a := PowerSums(ids, k)
		b := ApplyVandermonde(k, n, x)
		for p := 0; p < k; p++ {
			if a[p].Cmp(b[p]) != 0 {
				t.Fatalf("n=%d k=%d p=%d: %v != %v", n, k, p+1, a[p], b[p])
			}
		}
	}
}

func TestMaxPowerSumBits(t *testing.T) {
	// All subsets of {1..10}: S_2 ≤ 1+4+...+100 = 385 < 10*100=1000; bound is
	// bitlen(1000) = 10 bits.
	if got := MaxPowerSumBits(10, 2); got != 10 {
		t.Errorf("MaxPowerSumBits(10,2) = %d, want 10", got)
	}
	if MaxPowerSumBits(0, 3) != 0 {
		t.Error("n=0 should need 0 bits")
	}
	// The bound must actually bound the worst case (full set).
	for n := 1; n <= 30; n++ {
		for p := 1; p <= 4; p++ {
			all := make([]int, n)
			for i := range all {
				all[i] = i + 1
			}
			s := PowerSums(all, p)[p-1]
			if s.BitLen() > MaxPowerSumBits(n, p) {
				t.Fatalf("n=%d p=%d: sum needs %d bits, bound says %d", n, p, s.BitLen(), MaxPowerSumBits(n, p))
			}
		}
	}
}

// sumsOf returns the accumulator RecoverSet reads: set's k power sums,
// Reset for n.
func sumsOf(n, k int, set []int) *PowerSumAccumulator {
	acc := new(PowerSumAccumulator)
	acc.Reset(n, k)
	acc.Add(set...)
	return acc
}

func TestNewtonElementary(t *testing.T) {
	// Set {1,2,3}: p1=6, p2=14, p3=36; Newton's identities give e1=6,
	// e2=11, e3=6, and P(z) = (z−1)(z−2)(z−3).
	acc := sumsOf(10, 3, nil)
	for p, v := range []uint64{6, 14, 36} {
		acc.Sum(p + 1)[0] = v
	}
	got, err := RecoverSet(nil, 3, acc, 10)
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("decoded %v, %v; want [1 2 3]", got, err)
	}
}

func TestNewtonElementaryInexact(t *testing.T) {
	// p1=1, p2=2 is not the power sums of any integer multiset of size 2:
	// e2 = (e1*p1 - p2)/2 is not integral. Modulo a prime the division
	// goes through, so the re-summed answer is what must reject it.
	acc := sumsOf(10, 2, nil)
	acc.Sum(1)[0], acc.Sum(2)[0] = 1, 2
	if got, err := RecoverSet(nil, 2, acc, 10); err == nil {
		t.Errorf("decoded %v, want an error", got)
	}
}

func TestRecoverSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(200)
		d := rng.Intn(6)
		perm := rng.Perm(n)
		set := make([]int, d)
		for i := 0; i < d; i++ {
			set[i] = perm[i] + 1
		}
		got, err := RecoverSet(nil, d, sumsOf(n, d, set), n)
		if err != nil {
			t.Fatalf("n=%d set=%v: %v", n, set, err)
		}
		sort.Ints(set)
		if len(got) != len(set) || (d > 0 && !reflect.DeepEqual(got, set)) {
			t.Fatalf("recovered %v, want %v", got, set)
		}
	}
}

// TestRecoverSetWide decodes random d-subsets whose sums span several
// words: (n, k) = (1024, 6) and (16384, 5) (the 85-bit sums of experiment
// E2), and the adaptive protocol's k = 2(n−1) at n = 64, d up to 63, whose
// sums are 763 bits wide.
func TestRecoverSetWide(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ n, k, maxD int }{{1024, 6, 6}, {16384, 5, 5}, {64, 126, 63}} {
		for trial := 0; trial < 40; trial++ {
			d := rng.Intn(c.maxD + 1)
			if trial == 0 {
				d = c.maxD
			}
			set := rng.Perm(c.n)[:d]
			for i := range set {
				set[i]++
			}
			sums := sumsOf(c.n, c.k, set)
			got, err := RecoverSet([]int{-1}, d, sums, c.n)
			sort.Ints(set)
			if err != nil || got[0] != -1 || !reflect.DeepEqual(got[1:], set) {
				t.Fatalf("n=%d k=%d d=%d: decoded %v, %v; want [-1] + %v", c.n, c.k, d, got, err, set)
			}
			// One unit off in the widest sum's top word is no set's sums.
			top := sums.Sum(c.k)
			top[len(top)-1] ^= 1
			if d > 0 {
				if got, err := RecoverSet(nil, d, sums, c.n); err == nil {
					t.Fatalf("n=%d k=%d d=%d: corrupted sums decoded to %v", c.n, c.k, d, got)
				}
			}
		}
	}
}

func TestRecoverSetRejectsGarbage(t *testing.T) {
	// Sums of {1,2} but degree claimed 3.
	if _, err := RecoverSet(nil, 3, sumsOf(10, 3, []int{1, 2}), 10); err == nil {
		t.Error("expected error for wrong degree")
	}
	// Out-of-range root: set {15} with maxID 10.
	if _, err := RecoverSet(nil, 1, sumsOf(20, 1, []int{15}), 10); err == nil {
		t.Error("expected error for out-of-range element")
	}
	// A repeated root: the multiset {2, 5, 5}.
	acc := sumsOf(10, 3, nil)
	for p, v := range []uint64{12, 54, 258} {
		acc.Sum(p + 1)[0] = v
	}
	if got, err := RecoverSet(nil, 3, acc, 10); err == nil {
		t.Errorf("multiset sums decoded to %v", got)
	}
	// More sums than the degree needs: the extra ones are checked too.
	acc = sumsOf(10, 3, []int{4})
	acc.Sum(3)[0]++
	if got, err := RecoverSet(nil, 1, acc, 10); err == nil {
		t.Errorf("inconsistent S_3 decoded to %v", got)
	}
}

func TestRecoverSetEmpty(t *testing.T) {
	got, err := RecoverSet(nil, 0, sumsOf(10, 2, nil), 10)
	if err != nil || len(got) != 0 {
		t.Errorf("empty set should decode to empty: %v, %v", got, err)
	}
	if _, err := RecoverSet(nil, 0, sumsOf(10, 2, []int{3}), 10); err == nil {
		t.Error("nonzero sums should not decode to the empty set")
	}
}

func TestWrightUniquenessExhaustive(t *testing.T) {
	// Theorem 4 (Wright): for all subsets of {1..n} of size ≤ k, the map to
	// (|S|, S_1..S_k) is injective. Verify exhaustively for n=9, k=3.
	n, k := 9, 3
	seen := make(map[string][]int)
	subset := []int{}
	var rec func(start int)
	rec = func(start int) {
		if len(subset) <= k {
			key := fmt.Sprint(len(subset), PowerSums(subset, k))
			if prev, ok := seen[key]; ok {
				t.Fatalf("collision: %v and %v share power sums", prev, subset)
			}
			seen[key] = append([]int(nil), subset...)
		}
		if len(subset) == k {
			return
		}
		for v := start; v <= n; v++ {
			subset = append(subset, v)
			rec(v + 1)
			subset = subset[:len(subset)-1]
		}
	}
	rec(1)
}

func TestLookupMatchesNewton(t *testing.T) {
	n, k := 12, 3
	l, err := NewLookup(n, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		d := rng.Intn(k + 1)
		perm := rng.Perm(n)
		set := make([]int, d)
		for i := range set {
			set[i] = perm[i] + 1
		}
		sort.Ints(set)
		sums := sumsOf(n, k, set)
		a, err := l.Decode(nil, d, sums)
		if err != nil {
			t.Fatalf("lookup decode: %v", err)
		}
		b, err := RecoverSet(nil, d, sums, n)
		if err != nil {
			t.Fatalf("newton decode: %v", err)
		}
		sort.Ints(a)
		if len(a) != d || (d > 0 && !reflect.DeepEqual(a, set)) {
			t.Fatalf("lookup %v, want %v", a, set)
		}
		if len(b) != d || (d > 0 && !reflect.DeepEqual(b, set)) {
			t.Fatalf("newton %v, want %v", b, set)
		}
	}
}

func TestLookupEntriesCount(t *testing.T) {
	l, err := NewLookup(6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 6 + 15 // C(6,0)+C(6,1)+C(6,2)
	if l.Entries() != want {
		t.Errorf("entries = %d, want %d", l.Entries(), want)
	}
}

func TestLookupCap(t *testing.T) {
	if _, err := NewLookup(100, 4, 1000); err == nil {
		t.Error("expected cap error")
	}
}

func TestLookupMissingSubset(t *testing.T) {
	l, err := NewLookup(8, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Decode(nil, 1, sumsOf(100, 2, []int{99})); err == nil {
		t.Error("expected miss for out-of-range singleton")
	}
	if _, err := l.Decode(nil, 3, sumsOf(8, 2, []int{1, 2, 3})); err == nil {
		t.Error("expected error for d > k")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 3, 120}, {3, 5, 0}, {7, 1, 7},
		{100, 99, 100}, {60, 30, 118264581564861424}, {1 << 40, 1, 1 << 40},
	}
	for _, c := range cases {
		got, err := binomialChecked(c.n, c.k)
		if c.want > 1<<40 {
			if err == nil {
				t.Errorf("C(%d,%d) = %d, want a too-large error", c.n, c.k, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("C(%d,%d) = %d, %v; want %d", c.n, c.k, got, err, c.want)
		}
	}
	// Past one word in the intermediate product, and undefined inputs.
	for _, c := range [][2]int{{1 << 40, 2}, {1<<40 + 1, 1}, {-1, 0}, {4, -1}} {
		if got, err := binomialChecked(c[0], c[1]); err == nil {
			t.Errorf("C(%d,%d) = %d, want an error", c[0], c[1], got)
		}
	}
}

func TestFieldArithmetic(t *testing.T) {
	f := NewField(Mersenne61)
	a, b := uint64(1234567890123456789)%f.P, uint64(987654321098765)%f.P
	if f.Add(a, f.Neg(a)) != 0 {
		t.Error("a + (-a) != 0")
	}
	if f.Sub(a, a) != 0 {
		t.Error("a - a != 0")
	}
	if f.Mul(a, f.Inv(a)) != 1 {
		t.Error("a * a^-1 != 1")
	}
	// Distributivity spot check.
	left := f.Mul(a, f.Add(b, b))
	right := f.Add(f.Mul(a, b), f.Mul(a, b))
	if left != right {
		t.Error("distributivity fails")
	}
	if f.Pow(a, 0) != 1 {
		t.Error("a^0 != 1")
	}
	// Fermat: a^(p-1) = 1.
	if f.Pow(a, f.P-1) != 1 {
		t.Error("Fermat little theorem fails")
	}
}

func TestFieldSmallPrime(t *testing.T) {
	f := NewField(7)
	for a := uint64(1); a < 7; a++ {
		if f.Mul(a, f.Inv(a)) != 1 {
			t.Errorf("inverse of %d wrong", a)
		}
	}
	if f.Add(5, 4) != 2 {
		t.Error("5+4 mod 7 != 2")
	}
	if f.Sub(2, 5) != 4 {
		t.Error("2-5 mod 7 != 4")
	}
}

func TestIsPrime(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 101, 7919, Mersenne61}
	composites := []uint64{0, 1, 4, 9, 91, 561, 1<<61 - 2, 25326001}
	for _, p := range primes {
		if !IsPrime(p) {
			t.Errorf("%d should be prime", p)
		}
	}
	for _, c := range composites {
		if IsPrime(c) {
			t.Errorf("%d should be composite", c)
		}
	}
}

func TestNextPrime(t *testing.T) {
	cases := []struct{ in, want uint64 }{{2, 2}, {3, 3}, {4, 5}, {90, 97}, {7908, 7919}}
	for _, c := range cases {
		if got := NextPrime(c.in); got != c.want {
			t.Errorf("NextPrime(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuickRecoverSmallSets(t *testing.T) {
	f := func(raw [4]uint8) bool {
		// Build a set of ≤ 4 distinct IDs in [1,50].
		seen := map[int]bool{}
		var set []int
		for _, r := range raw {
			id := int(r)%50 + 1
			if !seen[id] {
				seen[id] = true
				set = append(set, id)
			}
		}
		got, err := RecoverSet(nil, len(set), sumsOf(50, len(set), set), 50)
		if err != nil {
			return false
		}
		sort.Ints(set)
		return len(got) == len(set) && (len(set) == 0 || reflect.DeepEqual(got, set))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickFieldMulCommutes(t *testing.T) {
	f := NewField(Mersenne61)
	prop := func(a, b uint64) bool {
		a, b = a%f.P, b%f.P
		return f.Mul(a, b) == f.Mul(b, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
