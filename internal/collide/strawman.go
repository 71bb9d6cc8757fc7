package collide

import (
	"fmt"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/lanes"
	"refereenet/internal/numeric"
)

// Strawman protocols: plausible frugal local functions. None of them can
// decide the paper's hard predicates — the theorems say no frugal local
// function can — and the collision search finds concrete witnesses.

// Strawman couples a local function with a name and its per-node bit budget
// as a function of n.
type Strawman struct {
	Label string
	Bits  func(n int) int
	Local engine.Local
}

// bufferedFunc adapts a writer-style function literal to engine.Local AND
// engine.BufferedLocal: each strawman is defined once as an append into a
// caller-owned writer, so batch runs evaluate it without allocating, while
// LocalMessage derives the immutable-String form for everything else.
type bufferedFunc func(w *bits.Writer, n, id int, nbrs []int)

func (f bufferedFunc) LocalMessage(n, id int, nbrs []int) bits.String {
	var w bits.Writer
	f(&w, n, id, nbrs)
	return w.String()
}

func (f bufferedFunc) AppendLocalMessage(w *bits.Writer, n, id int, nbrs []int) {
	f(w, n, id, nbrs)
}

// vectorFunc additionally implements engine.VectorLocal: a lane kernel
// that reproduces the bufferedFunc's batch statistics 64 graphs per word
// op. Strawmen qualify when their message width is data-independent —
// batch stats only see bit counts, so the kernel is the width algebra
// itself (lanes.ConstWidthKernel) and is exact by construction. Strawmen
// are not Deciders, so the decide flag changes nothing.
type vectorFunc struct {
	bufferedFunc
	kernel lanes.Kernel
}

func (v vectorFunc) VectorKernel(decide bool) lanes.Kernel { return v.kernel }

// vectorized wraps s's local function with the constant-width lane kernel.
// Only strawmen whose Bits is exact for every (n, id, nbrs) — all of the
// fixed-width ones — may opt in; the conformance suite holds the
// byte-identical line for each.
func (s Strawman) vectorized() Strawman {
	s.Local = vectorFunc{s.Local.(bufferedFunc), lanes.ConstWidthKernel(s.Bits)}
	return s
}

// DegreeOnly sends just deg(v) — the weakest plausible sketch.
func DegreeOnly() Strawman {
	return Strawman{
		Label: "degree",
		Bits:  func(n int) int { return bits.Width(n) },
		Local: bufferedFunc(func(w *bits.Writer, n, id int, nbrs []int) {
			w.WriteUint(uint64(len(nbrs)), bits.Width(n))
		}),
	}.vectorized()
}

// DegreeSum sends (deg, Σ neighbor IDs) — the forest protocol's message,
// which reconstructs forests but is far too weak for general graphs.
func DegreeSum() Strawman {
	return Strawman{
		Label: "degree+sum",
		Bits:  func(n int) int { return bits.Width(n) + numeric.MaxPowerSumBits(n, 1) },
		Local: bufferedFunc(func(w *bits.Writer, n, id int, nbrs []int) {
			w.WriteUint(uint64(len(nbrs)), bits.Width(n))
			sum := uint64(0)
			for _, x := range nbrs {
				sum += uint64(x)
			}
			w.WriteUint(sum, numeric.MaxPowerSumBits(n, 1))
		}),
	}
}

// PowerSums sends deg plus the first k power sums — the degeneracy
// protocol's message. Reconstructs degeneracy-≤k graphs; the collision
// search shows it still cannot decide squares/triangles/diameter on
// *arbitrary* graphs, which is exactly the boundary the paper draws.
//
// The sums accumulate in the same fixed-width word accumulator as the
// degeneracy protocol, so batch sweeps over this strawman run with zero
// heap allocations per graph like the rest of the lineup.
func PowerSums(k int) Strawman {
	return Strawman{
		Label: fmt.Sprintf("powersums[k=%d]", k),
		Bits: func(n int) int {
			total := bits.Width(n)
			for q := 1; q <= k; q++ {
				total += numeric.MaxPowerSumBits(n, q)
			}
			return total
		},
		Local: bufferedFunc(func(w *bits.Writer, n, id int, nbrs []int) {
			w.WriteUint(uint64(len(nbrs)), bits.Width(n))
			var acc numeric.PowerSumAccumulator
			acc.Reset(n, k)
			acc.Add(nbrs...)
			for q := 1; q <= k; q++ {
				w.WriteLimbsWidth(acc.Sum(q), numeric.MaxPowerSumBits(n, q))
			}
		}),
	}
}

// HashSketch sends a b-bit FNV-1a hash of the (id, neighborhood) pair — the
// "maybe a clever fingerprint escapes the counting bound" strawman. It
// cannot: with n·b bits total the referee still distinguishes at most 2^{nb}
// graphs.
func HashSketch(b int) Strawman {
	return Strawman{
		Label: fmt.Sprintf("hash[%db]", b),
		Bits:  func(int) int { return b },
		Local: bufferedFunc(func(w *bits.Writer, n, id int, nbrs []int) {
			h := uint64(fnvOffset)
			h = fnvMix(h, uint64(id))
			for _, x := range nbrs {
				h = fnvMix(h, uint64(x))
			}
			w.WriteUint(h&(1<<uint(b)-1), b)
		}),
	}.vectorized()
}

// NeighborhoodMod sends deg and Σ neighbor IDs mod a small prime — a lossy
// variant of DegreeSum that stays within strictly fewer bits.
func NeighborhoodMod(p uint64) Strawman {
	width := bits.Width(int(p - 1))
	return Strawman{
		Label: fmt.Sprintf("mod[%d]", p),
		Bits:  func(n int) int { return bits.Width(n) + width },
		Local: bufferedFunc(func(w *bits.Writer, n, id int, nbrs []int) {
			w.WriteUint(uint64(len(nbrs)), bits.Width(n))
			sum := uint64(0)
			for _, x := range nbrs {
				sum = (sum + uint64(x)) % p
			}
			w.WriteUint(sum, width)
		}),
	}.vectorized()
}

// TruncatedSum sends (deg mod 2^degBits, Σ neighbors mod 2^sumBits): a
// deliberately capacity-starved sketch for exhibiting the pigeonhole at
// enumerable n.
func TruncatedSum(degBits, sumBits int) Strawman {
	return Strawman{
		Label: fmt.Sprintf("trunc[%d+%db]", degBits, sumBits),
		Bits:  func(int) int { return degBits + sumBits },
		Local: bufferedFunc(func(w *bits.Writer, n, id int, nbrs []int) {
			w.WriteUint(uint64(len(nbrs))&(1<<uint(degBits)-1), degBits)
			sum := uint64(0)
			for _, x := range nbrs {
				sum += uint64(x)
			}
			w.WriteUint(sum&(1<<uint(sumBits)-1), sumBits)
		}),
	}
}

// WeakStrawmen is the lineup used by the forced-collision experiments: each
// protocol's total capacity n·b is comparable to or below log₂ of the family
// sizes at enumerable n, so the Lemma 1 pigeonhole actually bites there.
//
// This calibration matters: at n ≤ 7, a frugal budget of c·log₂ n bits per
// node dwarfs the C(n,2) ≤ 21 bits of entropy in the whole graph, so honest
// O(log n) protocols (DegreeSum, PowerSums) do NOT collide on tiny graphs —
// the paper's impossibility is intrinsically asymptotic, which is precisely
// why Theorems 1–3 argue by counting instead of by enumeration.
func WeakStrawmen() []Strawman {
	return []Strawman{
		DegreeOnly(),
		HashSketch(2),
		HashSketch(3),
		NeighborhoodMod(3),
		TruncatedSum(1, 2),
	}
}

// StrongStrawmen are honest Θ(log n)-bit protocols. On enumerable n they
// have spare capacity and typically produce collision-free message vectors;
// they exist to document that boundary (experiment E8 reports both sets).
func StrongStrawmen() []Strawman {
	return []Strawman{
		DegreeSum(),
		PowerSums(2),
		PowerSums(3),
		HashSketch(16),
		NeighborhoodMod(7),
		NeighborhoodMod(257),
	}
}

const fnvOffset = uint64(14695981039346656037)

func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= (v >> uint(8*i)) & 0xff
		h *= prime
	}
	// Separator byte so (1,2) and (12) hash differently.
	h ^= 0xff
	h *= prime
	return h
}
