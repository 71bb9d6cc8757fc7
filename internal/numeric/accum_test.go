package numeric

import (
	"math/big"
	"math/rand"
	"testing"

	"refereenet/internal/bits"
)

// The accumulator must agree bit-for-bit with the big.Int reference: same
// values as PowerSums, same fixed-width encodings via WriteLimbsWidth as a
// bit-by-bit big.Int writer.
func TestAccumulatorMatchesBigIntPowerSums(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		if trial%10 == 0 {
			n = 1 + rng.Intn(1<<20)
		}
		k := rng.Intn(9)
		// A random subset of {1..n} (no duplicates, like a neighborhood).
		ids := make([]int, 0, 64)
		for _, v := range rng.Perm(min(n, 1<<12))[:rng.Intn(min(n, 64)+1)] {
			ids = append(ids, n-v)
		}
		checkAccumulator(t, n, k, ids)
	}
}

// The widest cases: the adaptive protocol's k up to 2(n−1), experiment E2's
// 85-bit n = 16,384, k = 5 sums, and the full vertex set, whose sums sit at
// the top of each width.
func TestAccumulatorWideSums(t *testing.T) {
	all := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i + 1
		}
		return ids
	}
	checkAccumulator(t, 64, 126, all(64))
	checkAccumulator(t, 16384, 5, all(16384))
	checkAccumulator(t, 16384, 5, []int{16384, 1, 8191})
	checkAccumulator(t, 1, 7, []int{1})
}

func checkAccumulator(t *testing.T, n, k int, ids []int) {
	t.Helper()
	want := PowerSums(ids, k)
	var acc PowerSumAccumulator
	acc.Reset(n, k)
	acc.Add(ids...)
	for p := 1; p <= k; p++ {
		got := limbsToBig(acc.Sum(p))
		if got.Cmp(want[p-1]) != 0 {
			t.Fatalf("n=%d k=%d p=%d: accumulator %v, big.Int %v", n, k, p, got, want[p-1])
		}
		width := MaxPowerSumBits(n, p)
		var wa, wb bits.Writer
		wa.WriteLimbsWidth(acc.Sum(p), width)
		for i := width - 1; i >= 0; i-- {
			wb.WriteBit(int(want[p-1].Bit(i)))
		}
		if !wa.String().Equal(wb.String()) {
			t.Fatalf("n=%d p=%d: word encoding %s != big.Int encoding %s", n, p, wa.String(), wb.String())
		}
	}
}

func TestAccumulatorLargeIDs(t *testing.T) {
	// IDs near 2^32 make every power sum a genuine multi-word value.
	ids := []int{1 << 31, 1<<32 - 5, 1<<30 + 7}
	checkAccumulator(t, 1<<32, 4, ids)
}

func TestAccumulatorResetClears(t *testing.T) {
	var acc PowerSumAccumulator
	acc.Reset(10, 2)
	acc.Add(9)
	acc.Reset(10, 2)
	acc.Add(3)
	if got := limbsToBig(acc.Sum(1)); got.Int64() != 3 {
		t.Fatalf("S_1 after reset = %v, want 3", got)
	}
	if got := limbsToBig(acc.Sum(2)); got.Int64() != 9 {
		t.Fatalf("S_2 after reset = %v, want 9", got)
	}
	// A wide Reset, then a narrow one, then wide again: each starts at zero.
	acc.Reset(64, 126)
	acc.Add(64)
	acc.Reset(10, 2)
	if got := limbsToBig(acc.Sum(2)); got.Sign() != 0 {
		t.Fatalf("narrow S_2 after wide use = %v, want 0", got)
	}
	acc.Reset(64, 126)
	if got := limbsToBig(acc.Sum(126)); got.Sign() != 0 {
		t.Fatalf("wide S_126 after reuse = %v, want 0", got)
	}
}

// Remove undoes Add exactly: the sums of 1..n with a subset removed are the
// sums of the complement, the generalized protocol's co-neighborhood.
func TestAccumulatorRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range []struct{ n, k int }{{7, 3}, {65, 5}, {300, 2}, {64, 126}} {
		var acc PowerSumAccumulator
		acc.Reset(c.n, c.k)
		var kept []int
		for x := 1; x <= c.n; x++ {
			acc.Add(x)
		}
		for x := 1; x <= c.n; x++ {
			if rng.Intn(2) == 0 {
				acc.Remove(x)
			} else {
				kept = append(kept, x)
			}
		}
		want := PowerSums(kept, c.k)
		for p := 1; p <= c.k; p++ {
			if got := limbsToBig(acc.Sum(p)); got.Cmp(want[p-1]) != 0 {
				t.Fatalf("n=%d k=%d p=%d: %v, want %v", c.n, c.k, p, got, want[p-1])
			}
		}
	}
}

func TestAccumulatorRangePanics(t *testing.T) {
	var acc PowerSumAccumulator
	mustPanic(t, "Reset(k<0)", func() { acc.Reset(4, -1) })
	acc.Reset(4, 2)
	mustPanic(t, "Sum(0)", func() { acc.Sum(0) })
	mustPanic(t, "Sum(k+1)", func() { acc.Sum(3) })
	// IDs beyond n overflow the words sized for n; so does removing more
	// than was added.
	mustPanic(t, "Add(2^32) at n=4", func() { acc.Add(1 << 32) })
	acc.Reset(4, 2)
	mustPanic(t, "Remove from empty", func() { acc.Remove(1) })
	// A Remove whose power overflows the word while the subtraction itself
	// does not borrow: (2^32+1)^2 carries out of the one-word S_2.
	acc.Reset(1<<20, 2)
	for i := 0; i < 4097; i++ {
		acc.Add(1 << 20)
	}
	mustPanic(t, "Remove(2^32+1) at n=2^20", func() { acc.Remove(1<<32 + 1) })
}

func TestAccumulatorAllocFree(t *testing.T) {
	var acc PowerSumAccumulator
	ids := []int{3, 7, 11, 200, 4096}
	allocs := testing.AllocsPerRun(100, func() {
		acc.Reset(4096, 3)
		acc.Add(ids...)
		_ = acc.Sum(3)
	})
	if allocs != 0 {
		t.Errorf("accumulate allocated %.1f objects per run, want 0", allocs)
	}
}

func mustPanic(t *testing.T, label string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", label)
		}
	}()
	f()
}

func limbsToBig(limbs []uint64) *big.Int {
	v := new(big.Int)
	for i := len(limbs) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(limbs[i]))
	}
	return v
}
