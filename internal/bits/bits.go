// Package bits implements bit-exact message encoding for the referee model.
//
// The paper's frugality condition bounds the number of *bits* each node may
// send, so messages in this repository are genuine bitstrings rather than Go
// values. A String is an immutable sequence of bits; Writer and Reader
// convert between structured data and bitstrings using fixed-width words,
// fixed-width multi-word integers and self-delimiting Elias codes.
package bits

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
	"strings"
)

// String is an immutable bit string. The zero value is the empty string.
type String struct {
	data []byte // bit i lives in data[i/8], MSB first
	n    int    // length in bits
}

// Len returns the length of the string in bits.
func (s String) Len() int { return s.n }

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (s String) Bit(i int) int {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, s.n))
	}
	return int(s.data[i>>3]>>(7-uint(i&7))) & 1
}

// Equal reports whether two bit strings are identical (same length, same bits).
func (s String) Equal(t String) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}

// Bytes returns a copy of the underlying bytes, zero-padded to a byte
// boundary. Useful for hashing.
func (s String) Bytes() []byte {
	out := make([]byte, len(s.data))
	copy(out, s.data)
	return out
}

// String renders the bits as '0'/'1' characters, for debugging.
func (s String) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		b.WriteByte('0' + byte(s.Bit(i)))
	}
	return b.String()
}

// Concat returns the concatenation of the given bit strings.
func Concat(parts ...String) String {
	var w Writer
	for _, p := range parts {
		w.WriteBitString(p)
	}
	return w.String()
}

// FromBits builds a String from a sequence of 0/1 ints (test helper).
func FromBits(vals ...int) String {
	var w Writer
	for _, v := range vals {
		w.WriteBit(v)
	}
	return w.String()
}

// Writer appends bits to a growing string. The zero value is ready to use.
type Writer struct {
	data []byte
	n    int
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// WriteBit appends a single bit (any nonzero v counts as 1).
func (w *Writer) WriteBit(v int) {
	if w.n&7 == 0 {
		w.data = append(w.data, 0)
	}
	if v != 0 {
		w.data[w.n>>3] |= 1 << (7 - uint(w.n&7))
	}
	w.n++
}

// WriteUint appends v as exactly width bits, most significant bit first.
// It panics if v does not fit in width bits or width is out of [0,64].
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bits: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bits: value %d does not fit in %d bits", v, width))
	}
	w.writeBits(v, width)
}

// writeBits appends the low width bits of v (width in [0,64], higher bits of
// v already zero): it tops up the current partial byte, then appends the
// remaining bits, most significant first, as one 8-byte store cut back to
// the bytes they cover.
func (w *Writer) writeBits(v uint64, width int) {
	if width == 0 {
		return
	}
	used := w.n & 7
	w.n += width
	if used != 0 {
		free := 8 - used
		if width <= free {
			w.data[len(w.data)-1] |= byte(v << uint(free-width))
			return
		}
		width -= free
		w.data[len(w.data)-1] |= byte(v >> uint(width))
	}
	w.data = binary.BigEndian.AppendUint64(w.data, v<<uint(64-width))
	w.data = w.data[:len(w.data)-8+(width+7)>>3]
}

// WriteBitString appends the bits of s, a byte per step.
func (w *Writer) WriteBitString(s String) {
	full := s.n >> 3
	for _, b := range s.data[:full] {
		w.writeBits(uint64(b), 8)
	}
	if tail := s.n & 7; tail != 0 {
		w.writeBits(uint64(s.data[full]>>uint(8-tail)), tail)
	}
}

// WriteEliasGamma appends the Elias gamma code of v ≥ 1: the bit length of v
// minus one in unary (zeros), then v in binary. Self-delimiting.
func (w *Writer) WriteEliasGamma(v uint64) {
	if v == 0 {
		panic("bits: Elias gamma requires v >= 1")
	}
	nbits := bitLen(v)
	w.writeBits(0, nbits-1)
	w.WriteUint(v, nbits)
}

// WriteEliasDelta appends the Elias delta code of v ≥ 1: gamma code of the
// bit length, then the value without its leading 1. Shorter than gamma for
// large values; self-delimiting.
func (w *Writer) WriteEliasDelta(v uint64) {
	if v == 0 {
		panic("bits: Elias delta requires v >= 1")
	}
	nbits := bitLen(v)
	w.WriteEliasGamma(uint64(nbits))
	if nbits > 1 {
		w.WriteUint(v&((1<<uint(nbits-1))-1), nbits-1)
	}
}

// WriteLimbsWidth appends a non-negative integer, given as little-endian
// 64-bit limbs (limbs[0] holds bits 0..63), as exactly width bits, most
// significant bit first: the fixed-width power-sum encoding of the
// Theorem 5 messages, whose sums live in machine words
// (numeric.PowerSumAccumulator). Limbs beyond the width must be zero; a
// width beyond the limbs is zero-extended. It panics if the value does not
// fit in width bits.
func (w *Writer) WriteLimbsWidth(limbs []uint64, width int) {
	if width < 0 {
		panic(fmt.Sprintf("bits: invalid width %d", width))
	}
	for i := len(limbs) - 1; i >= 0; i-- {
		if limbs[i] != 0 {
			if 64*i+bitLen(limbs[i]) > width {
				panic(fmt.Sprintf("bits: limb value does not fit in %d bits", width))
			}
			break
		}
	}
	for width > 64*len(limbs) {
		pad := min(width-64*len(limbs), 64)
		w.writeBits(0, pad)
		width -= pad
	}
	for i := (width - 1) >> 6; i >= 0; i-- {
		w.writeBits(limbs[i], width-64*i)
		width = 64 * i
	}
}

// String returns the bits written so far as an immutable String.
func (w *Writer) String() String {
	data := make([]byte, len(w.data))
	copy(data, w.data)
	return String{data: data, n: w.n}
}

// Equal reports whether the bits written so far are exactly s, without
// copying them out.
func (w *Writer) Equal(s String) bool {
	return String{data: w.data, n: w.n}.Equal(s)
}

// Reset clears the writer for reuse, keeping its buffer capacity. Together
// with AppendTo it lets a hot loop (the batch engine's local phase) emit one
// String per node with zero steady-state allocations.
func (w *Writer) Reset() {
	w.data = w.data[:0]
	w.n = 0
}

// AppendTo appends the written bytes to arena and returns the bits as a
// String aliasing the appended region, plus the extended arena. The returned
// String stays valid as long as its region of the arena is not overwritten —
// callers reusing an arena (arena = arena[:0]) invalidate every String
// produced from it, which is the batch engine's per-graph transcript
// contract. The writer itself may be Reset and reused immediately.
func (w *Writer) AppendTo(arena []byte) (String, []byte) {
	start := len(arena)
	arena = append(arena, w.data...)
	return String{data: arena[start:len(arena):len(arena)], n: w.n}, arena
}

// Reader consumes a String from the front. Reads past the end return an
// error rather than panicking: a referee must be able to reject malformed
// messages gracefully.
type Reader struct {
	s   String
	pos int
}

// NewReader returns a Reader over s starting at bit 0.
func NewReader(s String) *Reader { return &Reader{s: s} }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.n - r.pos }

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (int, error) {
	if r.pos >= r.s.n {
		return 0, fmt.Errorf("bits: read past end (len %d)", r.s.n)
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b, nil
}

// ReadUint reads exactly width bits as an unsigned integer, MSB first.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bits: invalid width %d", width)
	}
	if r.Remaining() < width {
		return 0, fmt.Errorf("bits: need %d bits, have %d", width, r.Remaining())
	}
	var v uint64
	for width > 0 {
		off := r.pos & 7
		take := min(8-off, width)
		b := r.s.data[r.pos>>3] >> uint(8-off-take) & (1<<uint(take) - 1)
		v = v<<uint(take) | uint64(b)
		r.pos += take
		width -= take
	}
	return v, nil
}

// ReadLimbsWidth reads exactly width bits, most significant first, into
// limbs as a non-negative little-endian integer (limbs[0] gets bits
// 0..63): the mirror of WriteLimbsWidth, and how the referee reads a
// Theorem 5 power sum back into machine words. Limbs above the width are
// cleared. It returns an error when fewer than width bits remain or a set
// bit lies beyond the limbs.
func (r *Reader) ReadLimbsWidth(limbs []uint64, width int) error {
	if width < 0 || r.Remaining() < width {
		return fmt.Errorf("bits: need %d bits, have %d", width, r.Remaining())
	}
	clear(limbs)
	for width > 64*len(limbs) {
		pad := min(width-64*len(limbs), 64)
		if v, _ := r.ReadUint(pad); v != 0 {
			return fmt.Errorf("bits: value does not fit in %d limbs", len(limbs))
		}
		width -= pad
	}
	for i := (width - 1) >> 6; i >= 0; i-- {
		limbs[i], _ = r.ReadUint(width - 64*i)
		width = 64 * i
	}
	return nil
}

// ReadEliasGamma reads an Elias gamma encoded value ≥ 1.
func (r *Reader) ReadEliasGamma() (uint64, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 64 {
			return 0, fmt.Errorf("bits: Elias gamma prefix too long")
		}
	}
	rest, err := r.ReadUint(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest, nil
}

// ReadEliasDelta reads an Elias delta encoded value ≥ 1.
func (r *Reader) ReadEliasDelta() (uint64, error) {
	nbits, err := r.ReadEliasGamma()
	if err != nil {
		return 0, err
	}
	if nbits == 0 || nbits > 64 {
		return 0, fmt.Errorf("bits: Elias delta length %d out of range", nbits)
	}
	rest, err := r.ReadUint(int(nbits) - 1)
	if err != nil {
		return 0, err
	}
	return 1<<(nbits-1) | rest, nil
}

// bitLen returns the number of bits needed to represent v ≥ 1.
func bitLen(v uint64) int { return mathbits.Len64(v) }

// Width returns the number of bits needed to encode values in [0, max],
// i.e. the width both sides of a protocol agree on when max is public.
func Width(max int) int {
	if max < 0 {
		panic("bits: negative max")
	}
	if max == 0 {
		return 0
	}
	return bitLen(uint64(max))
}
