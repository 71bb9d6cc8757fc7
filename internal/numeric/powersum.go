// Package numeric provides the arithmetic behind the paper's degeneracy
// protocol: power sums of vertex identifiers (the vector b(x) = A(k,n)·x of
// Algorithm 3), their inversion via Newton's identities (Wright's theorem
// guarantees uniqueness), the O(n^k) look-up table decoder of Lemma 3, prime
// fields, and small combinatorial helpers.
//
// The local phase is fixed-width machine words: PowerSumAccumulator sizes
// its sums from the public MaxPowerSumBits(n, k), so a node's message costs
// word multiplies, and no allocation at the (n, k) of every sweep and bench
// workload. math/big remains only on the referee's side (PowerSums,
// RecoverSet, Lookup).
package numeric

import (
	"fmt"
	"math/big"
	mathbits "math/bits"
)

// PowerSums returns the vector (S_1, ..., S_k) with S_p = Σ_{x∈ids} x^p as
// big integers, the referee-side form that Newton's identities consume. ids
// need not be sorted; duplicates are the caller's bug and are not detected
// here.
func PowerSums(ids []int, k int) []*big.Int {
	sums := make([]*big.Int, k)
	for p := range sums {
		sums[p] = new(big.Int)
	}
	pow := new(big.Int)
	x := new(big.Int)
	for _, id := range ids {
		x.SetInt64(int64(id))
		pow.SetInt64(1)
		for p := 0; p < k; p++ {
			pow.Mul(pow, x)
			sums[p].Add(sums[p], pow)
		}
	}
	return sums
}

// VandermondeRow returns the p-th row (1-based) of the matrix A(k,n) of
// Definition 3: A_{p,i} = i^p for i = 1..n. Returned slice is indexed 1..n
// with entry 0 unused. Exposed mainly for tests that verify b(x) = A(k,n)·x.
func VandermondeRow(p, n int) []*big.Int {
	row := make([]*big.Int, n+1)
	row[0] = new(big.Int)
	for i := 1; i <= n; i++ {
		row[i] = new(big.Int).Exp(big.NewInt(int64(i)), big.NewInt(int64(p)), nil)
	}
	return row
}

// ApplyVandermonde computes A(k,n)·x for an incidence (0/1) vector x indexed
// 1..n, i.e. the power sums of the set {i : x[i] = 1}. The direct definition,
// used to cross-check PowerSums.
func ApplyVandermonde(k, n int, x []bool) []*big.Int {
	if len(x) != n+1 {
		panic(fmt.Sprintf("numeric: incidence vector length %d, want %d", len(x), n+1))
	}
	out := make([]*big.Int, k)
	for p := 1; p <= k; p++ {
		row := VandermondeRow(p, n)
		s := new(big.Int)
		for i := 1; i <= n; i++ {
			if x[i] {
				s.Add(s, row[i])
			}
		}
		out[p-1] = s
	}
	return out
}

// MaxPowerSumBits returns the number of bits sufficient to store
// S_p = Σ x^p over any subset of {1..n}: S_p < n·n^p = n^{p+1}, so
// (p+1)·bitlen(n) bits always suffice. Both node and referee can compute
// this from public (n, p), which is what makes fixed-width encoding legal.
func MaxPowerSumBits(n, p int) int {
	if n <= 0 {
		return 0
	}
	// Exact bound: bitlen(n^{p+1}). When the product fits in a word, compute
	// it without big.Int — this runs once per field in every LocalMessage, so
	// the allocation-free batch paths need it allocation-free too.
	if bl := mathbits.Len64(uint64(n)); (p+1)*bl <= 63 {
		v := uint64(1)
		for i := 0; i <= p; i++ {
			v *= uint64(n)
		}
		return mathbits.Len64(v)
	}
	b := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(p)), nil)
	b.Mul(b, big.NewInt(int64(n)))
	return b.BitLen()
}
