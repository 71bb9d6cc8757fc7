package bits

import "fmt"

// EncodeParts concatenates bit strings with self-delimiting length prefixes
// (Elias gamma of length+1), so a referee can split a compound message back
// into its components. The overhead is O(log |part|) bits per part — the
// reductions in the paper pay exactly this "three times as big" style cost.
func EncodeParts(parts ...String) String {
	var w Writer
	for _, p := range parts {
		w.WriteEliasGamma(uint64(p.Len()) + 1)
		w.WriteBitString(p)
	}
	return w.String()
}

// DecodeParts splits a compound message produced by EncodeParts into exactly
// count parts, erroring on malformed framing or trailing bits.
func DecodeParts(s String, count int) ([]String, error) {
	r := NewReader(s)
	parts := make([]String, 0, count)
	for i := 0; i < count; i++ {
		lp, err := r.ReadEliasGamma()
		if err != nil {
			return nil, fmt.Errorf("bits: part %d: %w", i, err)
		}
		length := int(lp) - 1
		if length < 0 || length > r.Remaining() {
			return nil, fmt.Errorf("bits: part %d: bad length %d", i, length)
		}
		var w Writer
		for j := 0; j < length; j++ {
			b, _ := r.ReadBit()
			w.WriteBit(b)
		}
		parts = append(parts, w.String())
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("bits: %d trailing bits after %d parts", r.Remaining(), count)
	}
	return parts, nil
}
