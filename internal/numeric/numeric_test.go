package numeric

import (
	"math/big"
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

func TestNewtonElementary(t *testing.T) {
	// Set {1,2,3}: p1=6, p2=14, p3=36; e1=6, e2=11, e3=6.
	p := []*big.Int{big.NewInt(6), big.NewInt(14), big.NewInt(36)}
	e, err := NewtonElementary(3, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 6, 11, 6}
	for i, w := range want {
		if e[i].Int64() != w {
			t.Errorf("e_%d = %v, want %d", i, e[i], w)
		}
	}
}

func TestNewtonElementaryInexact(t *testing.T) {
	// p1=1, p2=2 is not the power sums of any integer multiset of size 2:
	// e2 = (e1*p1 - p2)/2 = (1-2)/2 not integral.
	p := []*big.Int{big.NewInt(1), big.NewInt(2)}
	if _, err := NewtonElementary(2, p); err == nil {
		t.Error("expected inexact-division error")
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
		sums := PowerSums(set, d)
		got, err := RecoverSet(d, sums, n)
		if err != nil {
			t.Fatalf("n=%d set=%v: %v", n, set, err)
		}
		sort.Ints(set)
		if len(got) != len(set) {
			t.Fatalf("recovered %v, want %v", got, set)
		}
		for i := range set {
			if got[i] != set[i] {
				t.Fatalf("recovered %v, want %v", got, set)
			}
		}
	}
}

func TestRecoverSetRejectsGarbage(t *testing.T) {
	// Sums of {1,2} but degree claimed 3.
	sums := PowerSums([]int{1, 2}, 3)
	if _, err := RecoverSet(3, sums, 10); err == nil {
		t.Error("expected error for wrong degree")
	}
	// Out-of-range root: set {15} with maxID 10.
	sums2 := PowerSums([]int{15}, 1)
	if _, err := RecoverSet(1, sums2, 10); err == nil {
		t.Error("expected error for out-of-range element")
	}
}

func TestRecoverSetEmpty(t *testing.T) {
	got, err := RecoverSet(0, nil, 10)
	if err != nil || len(got) != 0 {
		t.Errorf("empty set should decode to empty: %v, %v", got, err)
	}
}

func TestIntegerRoots(t *testing.T) {
	// (z-2)(z-5)(z-5) = z^3 -12z^2 +45z -50: repeated root reported twice.
	coeffs := []*big.Int{big.NewInt(1), big.NewInt(-12), big.NewInt(45), big.NewInt(-50)}
	roots, err := IntegerRoots(coeffs, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(roots, []int{2, 5, 5}) {
		t.Errorf("roots = %v, want [2 5 5]", roots)
	}
}

func TestEvalPoly(t *testing.T) {
	// z^2 - 3z + 2 at z=5 → 12.
	coeffs := []*big.Int{big.NewInt(1), big.NewInt(-3), big.NewInt(2)}
	if got := EvalPoly(coeffs, 5); got.Int64() != 12 {
		t.Errorf("eval = %v, want 12", got)
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
			key := fingerprint(len(subset), PowerSums(subset, k))
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
		sums := PowerSums(set, k)
		a, err := l.Decode(d, sums)
		if err != nil {
			t.Fatalf("lookup decode: %v", err)
		}
		var b []int
		if d > 0 {
			b, err = RecoverSet(d, sums[:d], n)
			if err != nil {
				t.Fatalf("newton decode: %v", err)
			}
		}
		sort.Ints(a)
		if len(a) != d || (d > 0 && !reflect.DeepEqual(a, set)) {
			t.Fatalf("lookup %v, want %v", a, set)
		}
		if d > 0 && !reflect.DeepEqual(b, set) {
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
	if _, err := l.Decode(1, []*big.Int{big.NewInt(99), big.NewInt(99 * 99)}); err == nil {
		t.Error("expected miss for out-of-range singleton")
	}
	if _, err := l.Decode(3, PowerSums([]int{1, 2, 3}, 2)); err == nil {
		t.Error("expected error for d > k")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 3, 120}, {3, 5, 0}, {7, 1, 7},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k).Int64(); got != c.want {
			t.Errorf("C(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestCombinations(t *testing.T) {
	var all [][]int
	Combinations(4, 2, func(s []int) bool {
		all = append(all, append([]int(nil), s...))
		return true
	})
	want := [][]int{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}
	if !reflect.DeepEqual(all, want) {
		t.Errorf("combinations = %v", all)
	}
	// Early stop.
	count := 0
	Combinations(10, 3, func([]int) bool { count++; return count < 5 })
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
	// Degenerate cases.
	calls := 0
	Combinations(3, 0, func(s []int) bool { calls++; return len(s) == 0 })
	if calls != 1 {
		t.Errorf("k=0 should yield one empty subset, got %d", calls)
	}
	Combinations(2, 3, func([]int) bool { t.Error("k>n should yield nothing"); return false })
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
		sums := PowerSums(set, len(set))
		got, err := RecoverSet(len(set), sums, 50)
		if err != nil {
			return false
		}
		sort.Ints(set)
		return reflect.DeepEqual(got, set)
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
