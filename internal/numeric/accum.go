package numeric

import (
	"fmt"
	mathbits "math/bits"
	"slices"
)

// accumInlineWords is the accumulator's inline storage: k sums plus one
// power scratch, each as wide as the widest sum. It holds every (n, k) up to
// k = 15 whose k-th sum fits one word, and E2's 85-bit n = 16,384, k = 5
// sums; only a wider (n, k) grows a heap slice.
const accumInlineWords = 16

// PowerSumAccumulator computes (S_1, ..., S_k) with S_p = Σ x^p over
// fixed-width little-endian 64-bit words, exactly: it is the local phase's
// power-sum arithmetic, and its sums feed bits.Writer.WriteLimbsWidth. The
// word count is set once per Reset from MaxPowerSumBits(n, k), so the sums
// of IDs in 1..n never overflow and a 64-vertex k = 3 sum is one word wide.
// Values match the big.Int reference PowerSums, which the tests in
// accum_test.go check.
//
// The zero value is an accumulator for k = 0; call Reset to set (n, k) and
// clear. Nothing is allocated while (k+1)·bitlen(n) ≤ 63, where
// MaxPowerSumBits is one word of arithmetic.
type PowerSumAccumulator struct {
	k, words int
	inline   [accumInlineWords]uint64
	wide     []uint64 // the storage when (k+1)·words exceeds inline
}

// Reset clears the accumulator and sizes it for k power sums of IDs in 1..n.
// It panics if k is negative.
func (a *PowerSumAccumulator) Reset(n, k int) {
	if k < 0 {
		panic(fmt.Sprintf("numeric: accumulator power %d is negative", k))
	}
	a.k = k
	a.words = max(1, (MaxPowerSumBits(n, k)+63)/64)
	need := (k + 1) * a.words
	if need <= accumInlineWords {
		a.wide = nil
		clear(a.inline[:need])
		return
	}
	if cap(a.wide) < need {
		a.wide = make([]uint64, need)
	}
	a.wide = a.wide[:need]
	clear(a.wide)
}

func (a *PowerSumAccumulator) buf() []uint64 {
	if a.wide != nil {
		return a.wide
	}
	return a.inline[:]
}

// Add folds the IDs into every tracked sum: S_p += Σ x^p for p = 1..k.
// It panics if a sum outgrows its words, which IDs in 1..n never cause.
func (a *PowerSumAccumulator) Add(ids ...int) {
	if !a.fold(ids, false) {
		panic(fmt.Sprintf("numeric: power sums out of %d words", a.words))
	}
}

// Remove takes the IDs back out of every tracked sum: S_p -= Σ x^p. Each ID
// must have been added before; it panics otherwise.
func (a *PowerSumAccumulator) Remove(ids ...int) {
	if !a.TryRemove(ids...) {
		panic(fmt.Sprintf("numeric: power sums out of %d words", a.words))
	}
}

// TryRemove is Remove on sums that nobody vouches for, the referee's peel
// of a received message: it reports false, leaving the sums unspecified,
// where Remove would panic because a sum would drop below zero.
func (a *PowerSumAccumulator) TryRemove(ids ...int) bool { return a.fold(ids, true) }

// fold builds each x^p by repeated multi-word multiplication and adds it
// to, or subtracts it from, S_p. The lowest word of x^p stays in a
// register; the words above it, if any, live in the scratch after the sums.
// Subtraction adds the one's complement with a carry-in of one, so no borrow
// shows as a carry-out of one. It reports false on overflow or underflow.
func (a *PowerSumAccumulator) fold(ids []int, sub bool) bool {
	buf, w := a.buf(), a.words
	sums, high := buf[:a.k*w], buf[a.k*w+1:(a.k+1)*w]
	var flip, want uint64
	if sub {
		flip, want = ^uint64(0), 1
	}
	var bad uint64
	for _, id := range ids {
		x := uint64(id)
		for i := range high {
			high[i] = 0
		}
		low := uint64(1)
		for off := 0; off+w <= len(sums); off += w {
			sum := sums[off : off+w]
			carry, lo := mathbits.Mul64(low, x)
			low = lo
			var c uint64
			sum[0], c = mathbits.Add64(sum[0], lo^flip, want)
			for i, hw := range high {
				hi, lo := mathbits.Mul64(hw, x)
				var cc uint64
				lo, cc = mathbits.Add64(lo, carry, 0)
				carry = hi + cc
				high[i] = lo
				sum[i+1], c = mathbits.Add64(sum[i+1], lo^flip, c)
			}
			bad |= carry | (c ^ want)
		}
	}
	return bad == 0
}

// Equal reports whether both accumulators hold the same k sums at the same
// word width.
func (a *PowerSumAccumulator) Equal(b *PowerSumAccumulator) bool {
	return a.k == b.k && a.words == b.words && slices.Equal(a.buf()[:a.k*a.words], b.buf()[:b.k*b.words])
}

// Sum returns S_p (p in 1..k) as little-endian 64-bit words. The slice
// aliases the accumulator and is invalidated by the next Reset, Add or
// Remove; write it out (bits.Writer.WriteLimbsWidth) before touching the
// accumulator again. Writes through it set the sum: the referee reads a
// message's sums straight into it (bits.Reader.ReadLimbsWidth).
func (a *PowerSumAccumulator) Sum(p int) []uint64 {
	if p < 1 || p > a.k {
		panic(fmt.Sprintf("numeric: sum index %d out of range [1,%d]", p, a.k))
	}
	return a.buf()[(p-1)*a.words : p*a.words]
}
