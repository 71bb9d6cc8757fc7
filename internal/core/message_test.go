package core

import (
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/numeric"
)

// writeBigWidth is the reference fixed-width encoder: the big.Int's bits,
// most significant first, one at a time.
func writeBigWidth(w *bits.Writer, v *big.Int, width int) {
	if v.Sign() < 0 || v.BitLen() > width {
		panic("writeBigWidth: value does not fit")
	}
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(int(v.Bit(i)))
	}
}

// refDegeneracyMessage is Algorithm 3 on big.Int power sums, the form the
// message had before the sums moved into machine words.
func refDegeneracyMessage(n, k, id int, nbrs []int) bits.String {
	var out bits.Writer
	out.WriteUint(uint64(id), bits.Width(n))
	out.WriteUint(uint64(len(nbrs)), bits.Width(n))
	sums := numeric.PowerSums(nbrs, k)
	for q := 1; q <= k; q++ {
		writeBigWidth(&out, sums[q-1], numeric.MaxPowerSumBits(n, q))
	}
	return out.String()
}

// refGeneralizedMessage is the generalized message on big.Int power sums of
// an explicit co-neighborhood.
func refGeneralizedMessage(n, k, id int, nbrs []int) bits.String {
	isNbr := make([]bool, n+1)
	for _, x := range nbrs {
		isNbr[x] = true
	}
	var co []int
	for x := 1; x <= n; x++ {
		if x != id && !isNbr[x] {
			co = append(co, x)
		}
	}
	var out bits.Writer
	out.WriteUint(uint64(id), bits.Width(n))
	out.WriteUint(uint64(len(nbrs)), bits.Width(n))
	sums, coSums := numeric.PowerSums(nbrs, k), numeric.PowerSums(co, k)
	for q := 1; q <= k; q++ {
		width := numeric.MaxPowerSumBits(n, q)
		writeBigWidth(&out, sums[q-1], width)
		writeBigWidth(&out, coSums[q-1], width)
	}
	return out.String()
}

// messageCases draws (id, nbrs) pairs for an n-vertex graph: isolated and
// full neighborhoods, the extreme IDs 1 and n, and random subsets.
type messageCase struct {
	id   int
	nbrs []int
}

func messageCases(rng *rand.Rand, n int) []messageCase {
	var cases []messageCase
	add := func(id int, nbrs []int) {
		sort.Ints(nbrs)
		cases = append(cases, messageCase{id, nbrs})
	}
	add(1, nil)
	add(n, nil)
	if n <= 128 {
		for _, id := range []int{1, n} {
			var all []int
			for x := 1; x <= n; x++ {
				if x != id {
					all = append(all, x)
				}
			}
			add(id, all)
		}
	}
	for trial := 0; trial < 6; trial++ {
		id := 1 + rng.Intn(n)
		var nbrs []int
		hasN := false
		for _, x := range rng.Perm(n)[:rng.Intn(min(n, 40))] {
			if x+1 != id {
				nbrs = append(nbrs, x+1)
				hasN = hasN || x+1 == n
			}
		}
		if !hasN && id != n && trial == 0 {
			nbrs = append(nbrs, n) // the widest single term
		}
		add(id, nbrs)
	}
	return cases
}

// The word-sized local phase must write every bit the big.Int form wrote:
// AppendLocalMessage ≡ LocalMessage ≡ the big.Int reference, for both
// Theorem 5 protocols, across one-word, multi-word and wide (n, K).
func TestLocalMessageMatchesBigIntReference(t *testing.T) {
	type shape struct{ n, k int }
	var shapes []shape
	for _, n := range []int{1, 2, 7, 63, 64, 65, 1024, 16384} {
		for _, k := range []int{1, 3, 5} {
			shapes = append(shapes, shape{n, k})
		}
	}
	shapes = append(shapes, shape{64, 126}) // the adaptive protocol's widest k
	rng := rand.New(rand.NewSource(21))
	var buf bits.Writer
	for _, sh := range shapes {
		for _, c := range messageCases(rng, sh.n) {
			for _, p := range []struct {
				name string
				msg  engine.BufferedLocal
				ref  func(n, k, id int, nbrs []int) bits.String
			}{
				{"degeneracy", &DegeneracyProtocol{K: sh.k}, refDegeneracyMessage},
				{"generalized", &GeneralizedDegeneracyProtocol{K: sh.k}, refGeneralizedMessage},
			} {
				want := p.ref(sh.n, sh.k, c.id, c.nbrs)
				got := p.msg.LocalMessage(sh.n, c.id, c.nbrs)
				buf.Reset()
				p.msg.AppendLocalMessage(&buf, sh.n, c.id, c.nbrs)
				if !got.Equal(want) || !buf.String().Equal(want) {
					t.Fatalf("%s n=%d k=%d id=%d deg=%d: LocalMessage %d bits, AppendLocalMessage %d bits, reference %d bits differ",
						p.name, sh.n, sh.k, c.id, len(c.nbrs), got.Len(), buf.Len(), want.Len())
				}
			}
		}
	}
}

// The oracle row is written 64 columns per word; it must be the n-bit
// incidence row, bit j-1 set iff j is a neighbor, across word boundaries.
func TestOracleRowMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	o := NewConnectivityOracle()
	for _, n := range []int{1, 2, 7, 63, 64, 65, 127, 128, 129, 200} {
		for _, c := range messageCases(rng, n) {
			isNbr := make([]bool, n+1)
			for _, x := range c.nbrs {
				isNbr[x] = true
			}
			var want bits.Writer
			for j := 1; j <= n; j++ {
				if isNbr[j] {
					want.WriteBit(1)
				} else {
					want.WriteBit(0)
				}
			}
			if got := o.LocalMessage(n, c.id, c.nbrs); !got.Equal(want.String()) {
				t.Fatalf("n=%d id=%d nbrs=%v: row %s, want %s", n, c.id, c.nbrs, got, want.String())
			}
		}
	}
}
