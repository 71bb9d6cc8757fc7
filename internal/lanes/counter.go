package lanes

// CounterPlanes bounds the values a Counter can hold to [0, 2^7). The
// largest per-node quantity any kernel accumulates is a neighbor-ID sum,
// at most Σ{1..MaxSmallN} = 66 < 128.
const CounterPlanes = 7

// Counter is a bitsliced per-lane accumulator: CounterPlanes bit-planes of
// 64 lanes each, plane i holding bit i of every lane's value. One AddMasked
// call performs 64 simultaneous additions in O(CounterPlanes) word ops — a
// ripple-carry adder whose "wires" are whole lanes.
type Counter struct {
	p [CounterPlanes]uint64
}

// Reset zeroes every lane.
func (c *Counter) Reset() { *c = Counter{} }

// AddMasked adds the constant v to every lane selected by mask m, leaving
// other lanes untouched. Classic full-adder chain: addend plane i is m where
// bit i of v is set, summed into the counter planes with a rippling carry.
// Callers keep values below 2^CounterPlanes; the final carry is discarded.
func (c *Counter) AddMasked(v, m uint64) {
	carry := uint64(0)
	for i := range c.p {
		var a uint64
		if v>>uint(i)&1 != 0 {
			a = m
		}
		p := c.p[i]
		c.p[i] = p ^ a ^ carry
		carry = p&a | p&carry | a&carry
	}
}

// Value extracts lane j's accumulated value — the scalar view, for tests
// and untransposed fallbacks.
func (c *Counter) Value(j int) int {
	v := 0
	for i := range c.p {
		v |= int(c.p[i]>>uint(j)&1) << uint(i)
	}
	return v
}

// Mod3 reduces every lane mod 3 simultaneously, returning the residue in
// two one-hot-free binary planes: lane j's residue is r0[j] + 2·r1[j].
// Horner over the bit-planes from the top: doubling a residue mod 3 swaps
// 1 ↔ 2 — a plane swap — and adding the next plane is a masked increment
// through the 3-cycle 0→1→2→0.
func (c *Counter) Mod3() (r0, r1 uint64) {
	for i := CounterPlanes - 1; i >= 0; i-- {
		r0, r1 = r1, r0 // ×2 mod 3
		b := c.p[i]
		r0, r1 = (^(r0|r1)&b)|(r0&^b), (r0&b)|(r1&^b) // +1 under b
	}
	return r0, r1
}

// Mod7 reduces every lane mod 7, lane j's residue being
// r0[j] + 2·r1[j] + 4·r2[j]. Doubling mod 7 is a rotation of the three
// binary planes (since 8 ≡ 1 mod 7), and the masked increment is a 3-bit
// ripple add whose only overflow case, 6+1 = 7 ≡ 0, is cleared explicitly.
func (c *Counter) Mod7() (r0, r1, r2 uint64) {
	for i := CounterPlanes - 1; i >= 0; i-- {
		r0, r1, r2 = r2, r0, r1 // ×2 mod 7
		b := c.p[i]
		c1 := r0 & b
		c2 := r1 & c1
		r0, r1, r2 = r0^b, r1^c1, r2^c2
		seven := r0 & r1 & r2
		r0, r1, r2 = r0&^seven, r1&^seven, r2&^seven
	}
	return r0, r1, r2
}
