package bits

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	var w Writer
	pattern := []int{1, 0, 0, 1, 1, 1, 0, 1, 0, 1} // crosses a byte boundary
	for _, b := range pattern {
		w.WriteBit(b)
	}
	s := w.String()
	if s.Len() != len(pattern) {
		t.Fatalf("len = %d, want %d", s.Len(), len(pattern))
	}
	r := NewReader(s)
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("bit %d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err == nil {
		t.Error("read past end should fail")
	}
}

func TestWriteUintWidths(t *testing.T) {
	var w Writer
	w.WriteUint(5, 3)
	w.WriteUint(0, 4)
	w.WriteUint(1<<63, 64)
	s := w.String()
	if s.Len() != 3+4+64 {
		t.Fatalf("len = %d", s.Len())
	}
	r := NewReader(s)
	if v, _ := r.ReadUint(3); v != 5 {
		t.Errorf("got %d, want 5", v)
	}
	if v, _ := r.ReadUint(4); v != 0 {
		t.Errorf("got %d, want 0", v)
	}
	if v, _ := r.ReadUint(64); v != 1<<63 {
		t.Errorf("got %d, want 1<<63", v)
	}
}

func TestWriteUintOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for value too wide")
		}
	}()
	var w Writer
	w.WriteUint(8, 3)
}

// writeBitsRef is the bit-at-a-time reference writer: v's low width bits,
// most significant first.
func writeBitsRef(w *Writer, v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

// The byte-at-a-time writers must emit exactly the bits of the bit-by-bit
// reference from every start offset within a byte and at every width, and
// leave the writer ready for the next field.
func TestWriteUintMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for offset := 0; offset < 8; offset++ {
		for width := 0; width <= 64; width++ {
			for trial := 0; trial < 4; trial++ {
				v := rng.Uint64()
				switch {
				case width == 0:
					v = 0
				case width < 64:
					v &= 1<<uint(width) - 1
				}
				if trial == 1 && width > 0 {
					v = 1<<uint(width-1) | 1 // both ends set
				}
				prefix := rng.Uint64() & (1<<uint(offset) - 1)
				var got, want Writer
				got.WriteUint(prefix, offset)
				writeBitsRef(&want, prefix, offset)
				got.WriteUint(v, width)
				writeBitsRef(&want, v, width)
				got.WriteUint(5, 3)
				writeBitsRef(&want, 5, 3)
				if !got.String().Equal(want.String()) {
					t.Fatalf("offset=%d width=%d v=%#x: %s, want %s", offset, width, v, got.String(), want.String())
				}
			}
		}
	}
}

func TestWriteLimbsWidthMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for offset := 0; offset < 8; offset++ {
		for width := 0; width <= 64; width++ {
			for _, nlimbs := range []int{0, 1, 2} {
				limbs := make([]uint64, nlimbs)
				if nlimbs > 0 && width > 0 {
					limbs[0] = rng.Uint64()
					if width < 64 {
						limbs[0] &= 1<<uint(width) - 1
					}
				}
				prefix := uint64(0xa5) & (1<<uint(offset) - 1)
				var got, want Writer
				got.WriteUint(prefix, offset)
				writeBitsRef(&want, prefix, offset)
				got.WriteLimbsWidth(limbs, width)
				v := uint64(0)
				if nlimbs > 0 {
					v = limbs[0]
				}
				writeBitsRef(&want, v, width)
				if !got.String().Equal(want.String()) {
					t.Fatalf("offset=%d width=%d limbs=%#x: %s, want %s", offset, width, limbs, got.String(), want.String())
				}
			}
			// A two-limb value across the 64-bit boundary, width+64 wide.
			hi := rng.Uint64()
			if width < 64 {
				hi &= 1<<uint(width) - 1
			}
			lo := rng.Uint64()
			var got, want Writer
			got.WriteUint(0, offset)
			writeBitsRef(&want, 0, offset)
			got.WriteLimbsWidth([]uint64{lo, hi}, width+64)
			writeBitsRef(&want, hi, width)
			writeBitsRef(&want, lo, 64)
			if !got.String().Equal(want.String()) {
				t.Fatalf("offset=%d width=%d two limbs: %s, want %s", offset, width+64, got.String(), want.String())
			}
		}
	}
}

func TestWriteBitStringMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for offset := 0; offset < 8; offset++ {
		for length := 0; length <= 70; length++ {
			var src Writer
			for i := 0; i < length; i++ {
				src.WriteBit(rng.Intn(2))
			}
			s := src.String()
			var got, want Writer
			got.WriteUint(0x5a&(1<<uint(offset)-1), offset)
			writeBitsRef(&want, 0x5a&(1<<uint(offset)-1), offset)
			got.WriteBitString(s)
			for i := 0; i < s.Len(); i++ {
				want.WriteBit(s.Bit(i))
			}
			got.WriteUint(3, 2)
			writeBitsRef(&want, 3, 2)
			if !got.String().Equal(want.String()) {
				t.Fatalf("offset=%d length=%d: %s, want %s", offset, length, got.String(), want.String())
			}
		}
	}
}

// Overflow still panics at every width, whatever the start offset.
func TestWriteUintOverflowPanicsEveryWidth(t *testing.T) {
	for offset := 0; offset < 8; offset++ {
		for width := 0; width < 64; width++ {
			for _, write := range []func(w *Writer){
				func(w *Writer) { w.WriteUint(1<<uint(width), width) },
				func(w *Writer) { w.WriteLimbsWidth([]uint64{1 << uint(width)}, width) },
				func(w *Writer) { w.WriteLimbsWidth([]uint64{0, 1}, width) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("offset=%d width=%d: no overflow panic", offset, width)
						}
					}()
					var w Writer
					w.WriteUint(0, offset)
					write(&w)
				}()
			}
		}
	}
}

func TestZeroWidthUint(t *testing.T) {
	var w Writer
	w.WriteUint(0, 0)
	if w.Len() != 0 {
		t.Error("zero-width write should emit nothing")
	}
	r := NewReader(w.String())
	if v, err := r.ReadUint(0); err != nil || v != 0 {
		t.Errorf("zero-width read = %d, %v", v, err)
	}
}

func TestEliasGammaRoundTrip(t *testing.T) {
	var w Writer
	vals := []uint64{1, 2, 3, 4, 7, 8, 100, 1 << 20, 1<<40 + 12345}
	for _, v := range vals {
		w.WriteEliasGamma(v)
	}
	r := NewReader(w.String())
	for _, want := range vals {
		got, err := r.ReadEliasGamma()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("gamma round trip: got %d, want %d", got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("%d trailing bits", r.Remaining())
	}
}

func TestEliasGammaLength(t *testing.T) {
	// gamma(v) takes 2*bitlen(v)-1 bits.
	for _, v := range []uint64{1, 2, 5, 16, 1000} {
		var w Writer
		w.WriteEliasGamma(v)
		nbits := 0
		for x := v; x > 0; x >>= 1 {
			nbits++
		}
		if w.Len() != 2*nbits-1 {
			t.Errorf("gamma(%d) = %d bits, want %d", v, w.Len(), 2*nbits-1)
		}
	}
}

func TestEliasDeltaRoundTrip(t *testing.T) {
	var w Writer
	vals := []uint64{1, 2, 3, 10, 64, 65, 1 << 30, 1<<50 + 99}
	for _, v := range vals {
		w.WriteEliasDelta(v)
	}
	r := NewReader(w.String())
	for _, want := range vals {
		got, err := r.ReadEliasDelta()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("delta round trip: got %d, want %d", got, want)
		}
	}
}

// ReadLimbsWidth must read back exactly what WriteLimbsWidth wrote, from
// every start offset within a byte and at every width up to three limbs,
// clear the limbs above the width, and leave the reader at the next field.
func TestReadLimbsWidthRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for offset := 0; offset < 8; offset++ {
		for width := 0; width <= 130; width++ {
			want := make([]uint64, 3)
			for i := range want {
				if bit := 64 * i; bit < width {
					want[i] = rng.Uint64()
					if width-bit < 64 {
						want[i] &= 1<<uint(width-bit) - 1
					}
				}
			}
			prefix := rng.Uint64() & (1<<uint(offset) - 1)
			var w Writer
			w.WriteUint(prefix, offset)
			w.WriteLimbsWidth(want, width)
			w.WriteUint(5, 3)
			var ref Writer
			writeBitsRef(&ref, prefix, offset)
			for i := 2; i >= 0; i-- {
				if bit := 64 * i; bit < width {
					writeBitsRef(&ref, want[i], min(width-bit, 64))
				}
			}
			writeBitsRef(&ref, 5, 3)
			if !w.String().Equal(ref.String()) {
				t.Fatalf("offset=%d width=%d: wrote %s, want %s", offset, width, w.String(), ref.String())
			}
			r := NewReader(w.String())
			if p, err := r.ReadUint(offset); err != nil || p != prefix {
				t.Fatalf("offset=%d width=%d: prefix %d, %v", offset, width, p, err)
			}
			got := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
			if err := r.ReadLimbsWidth(got, width); err != nil {
				t.Fatalf("offset=%d width=%d: %v", offset, width, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("offset=%d width=%d: read %#x, want %#x", offset, width, got, want)
			}
			if tail, err := r.ReadUint(3); err != nil || tail != 5 || r.Remaining() != 0 {
				t.Fatalf("offset=%d width=%d: trailer %d, %v, %d bits left", offset, width, tail, err, r.Remaining())
			}
		}
	}
}

func TestReadLimbsWidthErrors(t *testing.T) {
	var w Writer
	w.WriteLimbsWidth([]uint64{0, 1}, 70) // bit 64 set
	s := w.String()
	if err := NewReader(s).ReadLimbsWidth(make([]uint64, 1), 70); err == nil {
		t.Error("a set bit above the limbs should not read")
	}
	if err := NewReader(s).ReadLimbsWidth(make([]uint64, 2), 71); err == nil {
		t.Error("a read past the end should fail")
	}
	// Zero bits above the limbs are only padding.
	w.Reset()
	w.WriteLimbsWidth([]uint64{9}, 130)
	got := make([]uint64, 1)
	if err := NewReader(w.String()).ReadLimbsWidth(got, 130); err != nil || got[0] != 9 {
		t.Errorf("padded read %v, %v; want [9]", got, err)
	}
}

func TestWriteLimbsWidthShortAndPadded(t *testing.T) {
	// A value with fewer limbs than the width covers is zero-extended.
	var w Writer
	w.WriteLimbsWidth([]uint64{5}, 70)
	v := make([]uint64, 2)
	if err := NewReader(w.String()).ReadLimbsWidth(v, 70); err != nil || v[0] != 5 || v[1] != 0 {
		t.Fatalf("read %v, %v; want [5 0]", v, err)
	}
	// Trailing zero limbs beyond the width are legal.
	w.Reset()
	w.WriteLimbsWidth([]uint64{3, 0, 0}, 2)
	if w.Len() != 2 {
		t.Fatalf("wrote %d bits, want 2", w.Len())
	}
}

func TestWriteLimbsWidthTooNarrowPanics(t *testing.T) {
	for _, c := range []struct {
		limbs []uint64
		width int
	}{
		{[]uint64{255}, 4},        // low limb overflows width
		{[]uint64{0, 1}, 64},      // nonzero limb entirely above width
		{[]uint64{0, 1 << 1}, 65}, // high limb partially above width
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("limbs=%v width=%d did not panic", c.limbs, c.width)
				}
			}()
			var w Writer
			w.WriteLimbsWidth(c.limbs, c.width)
		}()
	}
}

func TestConcat(t *testing.T) {
	a := FromBits(1, 0, 1)
	b := FromBits(1, 1)
	c := Concat(a, b)
	if c.Len() != 5 {
		t.Fatalf("len = %d", c.Len())
	}
	want := []int{1, 0, 1, 1, 1}
	for i, wb := range want {
		if c.Bit(i) != wb {
			t.Errorf("bit %d = %d, want %d", i, c.Bit(i), wb)
		}
	}
}

func TestEqual(t *testing.T) {
	if !FromBits(1, 0, 1).Equal(FromBits(1, 0, 1)) {
		t.Error("equal strings compare unequal")
	}
	if FromBits(1, 0).Equal(FromBits(1, 0, 0)) {
		t.Error("prefix compares equal to longer string")
	}
	if FromBits(1, 0).Equal(FromBits(0, 1)) {
		t.Error("different strings compare equal")
	}
}

func TestStringRender(t *testing.T) {
	if got := FromBits(1, 0, 1, 1).String(); got != "1011" {
		t.Errorf("String() = %q", got)
	}
}

func TestWidth(t *testing.T) {
	cases := []struct{ max, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := Width(c.max); got != c.want {
			t.Errorf("Width(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestQuickUintRoundTrip(t *testing.T) {
	f := func(v uint64, shift uint8) bool {
		width := int(shift%64) + 1
		v &= (1<<uint(width) - 1) | (1<<uint(width) - 1) // mask into width bits
		v &= ^uint64(0) >> (64 - uint(width))
		var w Writer
		w.WriteUint(v, width)
		got, err := NewReader(w.String()).ReadUint(width)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickGammaDeltaAgree(t *testing.T) {
	f := func(v uint64) bool {
		if v == 0 {
			v = 1
		}
		var wg, wd Writer
		wg.WriteEliasGamma(v)
		wd.WriteEliasDelta(v)
		g, err1 := NewReader(wg.String()).ReadEliasGamma()
		d, err2 := NewReader(wd.String()).ReadEliasDelta()
		return err1 == nil && err2 == nil && g == v && d == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReaderErrors(t *testing.T) {
	r := NewReader(FromBits(0, 0, 0))
	if _, err := r.ReadEliasGamma(); err == nil {
		t.Error("all-zero prefix should not decode as gamma")
	}
	r2 := NewReader(FromBits(1, 1))
	if _, err := r2.ReadUint(5); err == nil {
		t.Error("short read should fail")
	}
}

func TestBytesPadding(t *testing.T) {
	s := FromBits(1, 0, 1) // 3 bits → 1 byte, MSB first
	b := s.Bytes()
	if len(b) != 1 || b[0] != 0b10100000 {
		t.Errorf("bytes = %08b", b)
	}
	// Mutating the copy must not affect the string.
	b[0] = 0
	if s.Bit(0) != 1 {
		t.Error("Bytes returned aliased storage")
	}
}

func TestBitOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	FromBits(1).Bit(5)
}

func TestReadEliasDeltaCorrupt(t *testing.T) {
	// Delta length prefix of 0 zeros then truncated payload.
	r := NewReader(FromBits(0, 1, 1)) // gamma(len)=? 0,1 → len 2? then needs 1 more bit: have 1. ok
	if _, err := r.ReadEliasDelta(); err != nil {
		t.Skip("this prefix happens to decode; corrupt case below")
	}
	r2 := NewReader(FromBits(0, 0, 1, 0, 1))
	if _, err := r2.ReadEliasDelta(); err == nil {
		// gamma = 5 → needs 4 more bits, have 0 → must error
		t.Error("truncated delta should fail")
	}
}

func TestWriterResetReuse(t *testing.T) {
	var w Writer
	w.WriteUint(0b1011, 4)
	first := w.String()
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("len after reset = %d", w.Len())
	}
	w.WriteUint(0b01, 2)
	second := w.String()
	if !first.Equal(FromBits(1, 0, 1, 1)) {
		t.Errorf("first corrupted by reset: %v", first)
	}
	if !second.Equal(FromBits(0, 1)) {
		t.Errorf("second = %v", second)
	}
}

func TestWriterAppendTo(t *testing.T) {
	var arena []byte
	var w Writer
	var got []String
	want := []String{FromBits(1, 0, 1), FromBits(), FromBits(0, 1, 1, 1, 1, 0, 0, 0, 1)}
	for _, s := range want {
		w.Reset()
		for i := 0; i < s.Len(); i++ {
			w.WriteBit(s.Bit(i))
		}
		var out String
		out, arena = w.AppendTo(arena)
		got = append(got, out)
	}
	// Every earlier String must survive later appends (including arena
	// growth reallocations).
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("message %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWriterAppendToSteadyStateAllocFree(t *testing.T) {
	arena := make([]byte, 0, 64)
	var w Writer
	w.WriteUint(0xAB, 8) // pre-grow the writer buffer
	w.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		arena = arena[:0]
		for i := 0; i < 8; i++ {
			w.Reset()
			w.WriteUint(uint64(i), 6)
			_, arena = w.AppendTo(arena)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state AppendTo allocated %.1f objects, want 0", allocs)
	}
}
