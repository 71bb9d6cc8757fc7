package core

import (
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
)

// Native fuzz targets: the referee parses attacker-controlled bitstrings,
// so Reconstruct must never panic, whatever arrives. Run with
// `go test -fuzz=FuzzDegeneracyReconstruct ./internal/core` for a real
// campaign; the seed corpus below runs on every `go test`.

func bytesToMessages(data []byte, n, msgBits int) []bits.String {
	msgs := make([]bits.String, n)
	var w bits.Writer
	bit := 0
	for i := 0; i < n; i++ {
		w = bits.Writer{}
		for j := 0; j < msgBits; j++ {
			idx := bit / 8
			var b int
			if idx < len(data) {
				b = int(data[idx]>>(uint(bit)&7)) & 1
			}
			w.WriteBit(b)
			bit++
		}
		msgs[i] = w.String()
	}
	return msgs
}

func FuzzDegeneracyReconstruct(f *testing.F) {
	const n, k = 6, 2
	p := &DegeneracyProtocol{K: k}
	// Seed with a genuine transcript and a few mutations.
	g := gen.KTree(gen.NewRand(1), n, k)
	tr := engine.LocalPhase(g, p, engine.Serial{})
	var seed []byte
	for _, m := range tr.Messages {
		seed = append(seed, m.Bytes()...)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0xde, 0xad, 0xbe, 0xef})
	msgBits := p.MessageBits(n)
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := bytesToMessages(data, n, msgBits)
		h, err := p.Reconstruct(n, msgs) // must not panic
		if err == nil {
			// Acceptance implies exact codeword (the integrity check).
			reenc := engine.LocalPhase(h, p, engine.Serial{})
			for i := range msgs {
				if !msgs[i].Equal(reenc.Messages[i]) {
					t.Fatal("accepted a non-codeword")
				}
			}
		}
	})
}

func FuzzForestReconstruct(f *testing.F) {
	const n = 7
	p := ForestProtocol{}
	g := gen.RandomTree(gen.NewRand(2), n)
	tr := engine.LocalPhase(g, p, engine.Serial{})
	var seed []byte
	for _, m := range tr.Messages {
		seed = append(seed, m.Bytes()...)
	}
	f.Add(seed)
	f.Add([]byte{0x01, 0x02, 0x03})
	msgBits := p.MessageBits(n)
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := bytesToMessages(data, n, msgBits)
		h, err := p.Reconstruct(n, msgs)
		if err == nil {
			reenc := engine.LocalPhase(h, p, engine.Serial{})
			for i := range msgs {
				if !msgs[i].Equal(reenc.Messages[i]) {
					t.Fatal("accepted a non-codeword")
				}
			}
		}
	})
}

func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{0x80, 0x01}, 2)
	f.Add([]byte{}, 1)
	f.Add([]byte{0xff, 0xff, 0xff}, 3)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 8 {
			return
		}
		var w bits.Writer
		for _, b := range data {
			w.WriteUint(uint64(b), 8)
		}
		// Must not panic, error is fine.
		_, _ = bits.DecodeParts(w.String(), count)
	})
}

// FuzzGeneralizedReconstruct is FuzzDegeneracyReconstruct for the
// generalized referee, whose parse must reject a degree outside [0, n)
// before the co-degree it implies reaches the decoder.
func FuzzGeneralizedReconstruct(f *testing.F) {
	const n, k = 6, 1
	p := &GeneralizedDegeneracyProtocol{K: k}
	g := gen.KTree(gen.NewRand(3), n, k)
	tr := engine.LocalPhase(g, p, engine.Serial{})
	var seed []byte
	for _, m := range tr.Messages {
		seed = append(seed, m.Bytes()...)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0xde, 0xad, 0xbe, 0xef})
	msgBits := p.MessageBits(n)
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := bytesToMessages(data, n, msgBits)
		h, err := p.Reconstruct(n, msgs) // must not panic
		if err == nil {
			reenc := engine.LocalPhase(h, p, engine.Serial{})
			for i := range msgs {
				if !msgs[i].Equal(reenc.Messages[i]) {
					t.Fatal("accepted a non-codeword")
				}
			}
		}
	})
}
