package canon

import (
	"math/rand"
	"testing"
)

// FuzzCanonicalForm drives the defining invariant of the quotient plane: the
// canonical identity (form AND automorphism-group order) of a graph must
// survive arbitrary vertex relabellings, and the form must be a fixpoint of
// Canonical; for n ≤ 8 the identity must also equal the unpruned
// exhaustive search's. A single violation would silently corrupt every
// weighted sweep total downstream, so this runs on every `go test` via the
// seed corpus (which includes the symmetric n = 9 and 10 graphs, where
// pruning does the most) and indefinitely under
// `go test -fuzz=FuzzCanonicalForm ./internal/canon`.
func FuzzCanonicalForm(f *testing.F) {
	f.Add(uint8(3), uint64(1), int64(1))
	f.Add(uint8(6), uint64(0x7fff), int64(2))
	f.Add(uint8(7), uint64(0x155555), int64(3))
	f.Add(uint8(8), uint64(0x0fedcba987), int64(4))
	f.Add(uint8(9), uint64(0xfff00000000), int64(5))
	for i, g := range symmetricGraphs {
		f.Add(uint8(g.n-2), g.mask, int64(6+i))
	}
	f.Fuzz(func(t *testing.T, nRaw uint8, maskRaw uint64, permSeed int64) {
		n := 2 + int(nRaw)%(MaxN-1) // 2..MaxN
		mask := maskRaw & (1<<uint(n*(n-1)/2) - 1)
		base, err := Canonical(n, mask)
		if err != nil {
			t.Fatalf("n=%d mask=%#x: %v", n, mask, err)
		}
		if base.AutOrder == 0 || Factorial(n)%base.AutOrder != 0 {
			t.Fatalf("n=%d mask=%#x: |Aut| = %d does not divide %d!", n, mask, base.AutOrder, n)
		}
		if n <= 8 {
			if want := exhaustiveCanonical(n, mask); base != want {
				t.Fatalf("n=%d mask=%#x: Canonical %+v, exhaustive search %+v", n, mask, base, want)
			}
		}
		// Idempotence: the canonical form is its own canonical form.
		if again := MustCanonical(n, base.Canon); again != base {
			t.Fatalf("n=%d mask=%#x: canon %+v re-canonizes to %+v", n, mask, base, again)
		}
		// Relabelling invariance over a handful of seeded random permutations.
		rng := rand.New(rand.NewSource(permSeed))
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(n)
			got := MustCanonical(n, relabel(n, mask, perm))
			if got != base {
				t.Fatalf("n=%d mask=%#x perm=%v: canonical identity moved %+v -> %+v", n, mask, perm, base, got)
			}
		}
	})
}
