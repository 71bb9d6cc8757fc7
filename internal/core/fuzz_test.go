package core

import (
	"testing"

	"refereenet/internal/bits"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"
)

// Native fuzz targets: the referee parses attacker-controlled bitstrings,
// so Reconstruct must never panic, whatever arrives, and may accept only an
// exact codeword. Each target reads its input as the transcript of two
// shapes — a small (n, k) and n = 9, k = 3 — so the seeds carry genuine
// transcripts of both and every single-bit flip of the n = 9 one. Run with
// `go test -fuzz=FuzzDegeneracyReconstruct ./internal/core` for a real
// campaign; the seed corpus below runs on every `go test`.

// bytesToMessages cuts n messages of msgBits bits from data, least
// significant bit of each byte first; bits past the end of data are zero.
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

// messagesToBytes is the inverse of bytesToMessages: a transcript as the
// fuzz input that reads back as it.
func messagesToBytes(msgs []bits.String) []byte {
	var data []byte
	bit := 0
	for _, m := range msgs {
		for j := 0; j < m.Len(); j++ {
			if bit%8 == 0 {
				data = append(data, 0)
			}
			data[bit/8] |= byte(m.Bit(j)) << uint(bit%8)
			bit++
		}
	}
	return data
}

// fuzzShape is one (n, protocol) a fuzz input is read as.
type fuzzShape struct {
	n int
	p engine.Reconstructor
}

// addSeeds adds the transcript of graphs[i] under shapes[i], which the
// referee must accept, and every single-bit flip of the last one.
func addSeeds(f *testing.F, shapes []fuzzShape, graphs ...*graph.Graph) {
	for i, sh := range shapes {
		msgs := engine.LocalPhase(graphs[i], sh.p, engine.Serial{}).Messages
		seed := messagesToBytes(msgs)
		if _, err := sh.p.Reconstruct(sh.n, bytesToMessages(seed, sh.n, msgs[0].Len())); err != nil {
			f.Fatalf("n=%d: genuine seed rejected: %v", sh.n, err)
		}
		f.Add(seed)
		if i < len(shapes)-1 {
			continue
		}
		for b := 0; b < 8*len(seed); b++ {
			flipped := append([]byte(nil), seed...)
			flipped[b/8] ^= 1 << uint(b%8)
			f.Add(flipped)
		}
	}
}

// fuzzReferee reads data as a transcript of every shape: Reconstruct must
// not panic, and whatever it accepts must re-encode to exactly the input.
func fuzzReferee(t *testing.T, shapes []fuzzShape, data []byte) {
	for _, sh := range shapes {
		msgs := bytesToMessages(data, sh.n, sh.p.LocalMessage(sh.n, 1, nil).Len())
		h, err := sh.p.Reconstruct(sh.n, msgs)
		if err != nil {
			continue
		}
		reenc := engine.LocalPhase(h, sh.p, engine.Serial{})
		for i := range msgs {
			if !msgs[i].Equal(reenc.Messages[i]) {
				t.Fatalf("n=%d: accepted a non-codeword", sh.n)
			}
		}
	}
}

func FuzzDegeneracyReconstruct(f *testing.F) {
	shapes := []fuzzShape{{6, &DegeneracyProtocol{K: 2}}, {9, &DegeneracyProtocol{K: 3}}}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0xde, 0xad, 0xbe, 0xef})
	addSeeds(f, shapes, gen.KTree(gen.NewRand(1), 6, 2), gen.KTree(gen.NewRand(4), 9, 3))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzReferee(t, shapes, data) })
}

func FuzzForestReconstruct(f *testing.F) {
	shapes := []fuzzShape{{7, ForestProtocol{}}, {9, ForestProtocol{}}}
	f.Add([]byte{0x01, 0x02, 0x03})
	addSeeds(f, shapes, gen.RandomTree(gen.NewRand(2), 7), gen.RandomForest(gen.NewRand(5), 9, 2))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzReferee(t, shapes, data) })
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
// before the co-degree it implies reaches the decoder (the committed
// degree-out-of-range input).
func FuzzGeneralizedReconstruct(f *testing.F) {
	shapes := []fuzzShape{{6, &GeneralizedDegeneracyProtocol{K: 1}}, {9, &GeneralizedDegeneracyProtocol{K: 3}}}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0xde, 0xad, 0xbe, 0xef})
	addSeeds(f, shapes, gen.KTree(gen.NewRand(3), 6, 1), gen.KTree(gen.NewRand(6), 9, 3).Complement())
	f.Fuzz(func(t *testing.T, data []byte) { fuzzReferee(t, shapes, data) })
}
