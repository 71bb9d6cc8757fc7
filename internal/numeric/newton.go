package numeric

import (
	"fmt"
	mathbits "math/bits"
)

// decodeField is the prime field RecoverSet works in. Any prime above n is
// exact (see RecoverSet); 2^61 − 1 is above every n a message can carry.
var decodeField = Field{P: Mersenne61}

// RecoverSet inverts power sums: it appends to dst, ascending, the d-subset
// S of [1, n] whose power sums S_p = Σ_{x∈S} x^p are sums.Sum(p) for every
// p ≤ k, where sums was Reset for (n, k), or returns an error when no
// d-subset has them. By Wright's theorem (Theorem 4 in the paper) the first
// d sums already pin S down.
//
// The sums are machine words, and so is the arithmetic. A singleton is its
// own first sum, the forest protocol's direct argument. Otherwise Newton's
// identities,
//
//	m·e_m = Σ_{i=1..m} (−1)^{i−1} e_{m−i} S_i,
//
// turn S_1..S_d into the elementary symmetric polynomials modulo the prime
// q = 2^61 − 1, and z runs over [1, n] testing P(z) = Π_{x∈S} (z − x) ≡ 0
// by finite differences, d additions per step. The test is exact: for z
// outside S every factor z − x is a nonzero integer of magnitude below
// n < q, so the prime q does not divide their product. Sums that belong to
// no d-subset can still produce d roots; the set found is therefore summed
// again and compared word for word, so garbage is an error at every width.
func RecoverSet(dst []int, d int, sums *PowerSumAccumulator, n int) ([]int, error) {
	if d < 0 || d > n || d > sums.k {
		return dst, fmt.Errorf("numeric: cannot decode a %d-subset of [1,%d] from %d sums", d, n, sums.k)
	}
	start := len(dst)
	switch d {
	case 0:
	case 1:
		if s := sums.Sum(1); s[0] >= 1 && s[0] <= uint64(n) {
			dst = append(dst, int(s[0]))
		}
	default:
		dst = appendRoots(dst, d, sums, n)
	}
	found := dst[start:]
	var check PowerSumAccumulator
	check.Reset(n, sums.k)
	if len(found) == d {
		check.Add(found...)
	}
	if len(found) != d || !check.Equal(sums) {
		return dst[:start], fmt.Errorf("numeric: the sums are not those of a %d-subset of [1,%d]", d, n)
	}
	return dst, nil
}

// appendRoots appends the z in [1, n] with P(z) ≡ 0 (mod q), at most d of
// them, where P is the monic degree-d polynomial whose roots have the power
// sums S_1..S_d.
func appendRoots(dst []int, d int, sums *PowerSumAccumulator, n int) []int {
	f := decodeField
	var stack [4 * 16]uint64
	scratch := stack[:]
	if 4*(d+1) > len(stack) {
		scratch = make([]uint64, 4*(d+1))
	}
	s, e, inv, v := scratch[:d+1], scratch[d+1:2*(d+1)], scratch[2*(d+1):3*(d+1)], scratch[3*(d+1):4*(d+1)]
	// e_m by Newton's identities; 1/m by inv(m) = −⌊q/m⌋·inv(q mod m).
	e[0], inv[1] = 1, 1
	for m := 1; m <= d; m++ {
		if m > 1 {
			inv[m] = f.Mul(f.P-f.P/uint64(m), inv[f.P%uint64(m)])
		}
		s[m] = reduce(f, sums.Sum(m))
		var acc uint64
		for i := 1; i <= m; i++ {
			t := f.Mul(e[m-i], s[i])
			if i%2 == 1 {
				acc = f.Add(acc, t)
			} else {
				acc = f.Sub(acc, t)
			}
		}
		e[m] = f.Mul(acc, inv[m])
	}
	// v[i] = P(1+i) by Horner, then v[i] = Δ^i P(1): stepping z to z+1 is
	// v[i] += v[i+1].
	for i := range v {
		z, val := uint64(i+1), uint64(1)
		for m := 1; m <= d; m++ {
			val = f.Mul(val, z)
			if m%2 == 1 {
				val = f.Sub(val, e[m])
			} else {
				val = f.Add(val, e[m])
			}
		}
		v[i] = val
	}
	for j := 1; j <= d; j++ {
		for i := d; i >= j; i-- {
			v[i] = f.Sub(v[i], v[i-1])
		}
	}
	for z, left := 1, d; z <= n && left > 0; z++ {
		if v[0] == 0 {
			dst = append(dst, z)
			left--
		}
		for i := 0; i < d; i++ {
			v[i] = f.Add(v[i], v[i+1])
		}
	}
	return dst
}

// reduce returns the little-endian words' value mod f.P.
func reduce(f Field, words []uint64) uint64 {
	var r uint64
	for i := len(words) - 1; i >= 0; i-- {
		_, r = mathbits.Div64(r, words[i], f.P)
	}
	return r
}
