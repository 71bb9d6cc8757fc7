// Package corpus is the disk-backed graph source: word-packed edge masks in
// a flat binary file, registered as the "file" source kind so sweeps run
// over curated or adversarial graph sets exactly like they run over the
// Gray-code enumeration — split into rank-range shards, dispatched to any
// worker fleet, checkpoint-resumable.
//
// The format is deliberately the dumbest thing that seeks: a fixed 24-byte
// header (magic "RNCORPUS", uint32 version, uint32 n, uint64 count, all
// little-endian) followed by count uint64 edge masks under the
// graph.EdgeIndex bit ordering. One word per graph caps n at 11 (C(11,2) =
// 55 ≤ 64 bits) — the same word-packed representation the enumeration
// engine uses, so corpora and Gray ranks are interchangeable below the spec
// layer. Record i lives at byte 24+8i, which is what makes a [Lo, Hi)
// record-range shard seekable without scanning.
//
// `graphgen -emit` writes corpora; `refereesim sweep -corpus` plans over
// them (see sweep.SplitCorpus).
package corpus

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"

	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
)

// Magic opens every corpus file.
const Magic = "RNCORPUS"

// Version is the current format version.
const Version = 1

// MaxN is the largest graph size a word-packed corpus can hold.
const MaxN = 11

// headerSize is the fixed byte length of the header; record i starts at
// headerSize + 8i.
const headerSize = len(Magic) + 4 + 4 + 8

// Header describes a corpus file.
type Header struct {
	// N is the vertex count of every graph in the corpus.
	N int
	// Count is the number of edge-mask records.
	Count uint64
}

// Write emits a complete corpus file: header plus one record per mask. Masks
// must fit n (no bits at or above C(n,2)).
func Write(w io.Writer, n int, masks []uint64) error {
	if n < 1 || n > MaxN {
		return fmt.Errorf("corpus: n=%d outside [1,%d]", n, MaxN)
	}
	edgeBits := uint(n * (n - 1) / 2)
	bw := bufio.NewWriter(w)
	bw.WriteString(Magic)
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], Version)
	bw.Write(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(n))
	bw.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:], uint64(len(masks)))
	bw.Write(scratch[:])
	for i, m := range masks {
		if edgeBits < 64 && m>>edgeBits != 0 {
			return fmt.Errorf("corpus: record %d mask %#x has bits beyond C(%d,2)=%d", i, m, n, edgeBits)
		}
		binary.LittleEndian.PutUint64(scratch[:], m)
		if _, err := bw.Write(scratch[:]); err != nil {
			return fmt.Errorf("corpus: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// WriteFile writes a corpus to path (atomic enough for our purposes: an
// error leaves a partial file that ReadHeader will reject on count
// mismatch).
func WriteFile(path string, n int, masks []uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("corpus: create %s: %w", path, err)
	}
	if err := Write(f, n, masks); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadHeader opens path, validates the header against the file size, and
// returns it — the plan stage's view of a corpus (sweep.SplitCorpus sizes
// its shards from Count).
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, fmt.Errorf("corpus: open %s: %w", path, err)
	}
	defer f.Close()
	h, err := readHeader(f)
	if err != nil {
		return Header{}, fmt.Errorf("corpus: %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		return Header{}, fmt.Errorf("corpus: stat %s: %w", path, err)
	}
	if want := int64(headerSize) + 8*int64(h.Count); info.Size() != want {
		return Header{}, fmt.Errorf("corpus: %s is %d bytes, header promises %d (%d records)",
			path, info.Size(), want, h.Count)
	}
	return h, nil
}

func readHeader(r io.Reader) (Header, error) {
	buf := make([]byte, headerSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Header{}, fmt.Errorf("read header: %w", err)
	}
	if string(buf[:len(Magic)]) != Magic {
		return Header{}, fmt.Errorf("bad magic %q (not a corpus file)", buf[:len(Magic)])
	}
	rest := buf[len(Magic):]
	if v := binary.LittleEndian.Uint32(rest[:4]); v != Version {
		return Header{}, fmt.Errorf("format version %d, this binary reads %d", v, Version)
	}
	n := int(binary.LittleEndian.Uint32(rest[4:8]))
	if n < 1 || n > MaxN {
		return Header{}, fmt.Errorf("header n=%d outside [1,%d]", n, MaxN)
	}
	return Header{N: n, Count: binary.LittleEndian.Uint64(rest[8:16])}, nil
}

// FileSource streams the records [lo, hi) of a corpus file through ONE
// reused *graph.Graph, toggling only the edges whose mask bits differ
// between consecutive records — the corpus counterpart of collide.GraySource
// (and, like it, an engine.BlockSource whose yielded pointer is only valid
// until the next Next call). The underlying file closes at stream
// exhaustion.
//
// A file that goes bad underneath the sweep — truncated mid-record, or a
// record carrying edge bits beyond C(n,2) — ends the stream early and parks
// the failure in Err (the engine.Erring contract): engine.ExecuteShard
// checks it after the run and fails the shard, which the wire layer maps
// onto Result.Err. Nothing on this path panics, so a malicious or corrupt
// corpus can cost a unit but never a daemon.
type FileSource struct {
	f    *os.File
	br   *bufio.Reader
	n    int
	pos  uint64 // absolute record index of the next read, for error messages
	left uint64
	mask uint64
	g    *graph.Graph
	err  error
}

// NewFileSource opens a corpus and positions at record lo. lo = hi = 0 means
// the whole corpus; otherwise records [lo, hi) with hi ≤ Count.
func NewFileSource(path string, lo, hi uint64) (*FileSource, error) {
	h, err := ReadHeader(path)
	if err != nil {
		return nil, err
	}
	if lo == 0 && hi == 0 {
		hi = h.Count
	}
	if lo > hi || hi > h.Count {
		return nil, fmt.Errorf("corpus: record range [%d,%d) out of bounds for %s (%d records)", lo, hi, path, h.Count)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: open %s: %w", path, err)
	}
	if _, err := f.Seek(int64(headerSize)+8*int64(lo), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("corpus: seek %s: %w", path, err)
	}
	return &FileSource{f: f, br: bufio.NewReaderSize(f, 64*1024), n: h.N, pos: lo, left: hi - lo}, nil
}

// N returns the vertex count of the corpus's graphs.
func (s *FileSource) N() int { return s.n }

// Next implements engine.Source. The returned graph is reused by the next
// call and must not be retained. A short or corrupt file — the header was
// validated against the file size at open, so hitting EOF mid-record means
// the file changed underneath the sweep — ends the stream and sets Err.
func (s *FileSource) Next() *graph.Graph {
	if s.left == 0 || s.err != nil {
		s.Close()
		return nil
	}
	var mask uint64
	if !s.readRecord(&mask) {
		return nil
	}
	if s.g == nil {
		s.mask = mask
		s.g = graph.FromEdgeMask(s.n, mask)
		return s.g
	}
	for diff := s.mask ^ mask; diff != 0; diff &= diff - 1 {
		u, v := graph.EdgePair(s.n, bits.TrailingZeros64(diff))
		s.g.ToggleEdge(u, v)
	}
	s.mask = mask
	return s.g
}

// readRecord pulls and validates one record into *mask, advancing the
// cursor — the read shared by the scalar and block pulls. On a truncated
// or corrupt record it parks the failure (fail) and reports false.
func (s *FileSource) readRecord(mask *uint64) bool {
	var rec [8]byte
	if _, err := io.ReadFull(s.br, rec[:]); err != nil {
		s.fail(fmt.Errorf("corpus: file truncated at record %d: %w", s.pos, err))
		return false
	}
	m := binary.LittleEndian.Uint64(rec[:])
	if edgeBits := uint(s.n * (s.n - 1) / 2); edgeBits < 64 && m>>edgeBits != 0 {
		s.fail(fmt.Errorf("corpus: record %d mask %#x has bits beyond C(%d,2)=%d", s.pos, m, s.n, edgeBits))
		return false
	}
	s.pos++
	s.left--
	*mask = m
	return true
}

// NextBlock implements engine.BlockSource: the next ≤ 64 records gathered
// into one transposed block via lanes.Block.FillMasks (corpus records,
// like class representatives, are arbitrary masks — nothing Gray-adjacent
// to exploit). A record that goes bad mid-block still ends the stream and
// parks the failure in Err: the good records before it are served as a
// final partial block — exactly the graphs the scalar pull would have
// yielded before failing — and the next call returns false. The scalar
// toggle state (s.g, s.mask) is left untouched, so mixing Next and
// NextBlock on one source stays correct.
func (s *FileSource) NextBlock(blk *lanes.Block) bool {
	if s.left == 0 || s.err != nil {
		s.Close()
		return false
	}
	var masks [lanes.Lanes]uint64
	count := 0
	for count < lanes.Lanes && s.left > 0 {
		if !s.readRecord(&masks[count]) {
			break
		}
		count++
	}
	if count == 0 {
		return false
	}
	blk.FillMasks(s.n, masks[:count])
	return true
}

// fail ends the stream with err: the fd is released immediately (a poisoned
// unit in a long-lived daemon must not leak a descriptor) and subsequent
// Next calls return nil without touching the file again.
func (s *FileSource) fail(err error) *graph.Graph {
	s.err = err
	s.left = 0
	s.Close()
	return nil
}

// Err implements engine.Erring: it reports why the stream ended, nil after a
// clean exhaustion.
func (s *FileSource) Err() error { return s.err }

// Mask returns the edge mask of the graph most recently yielded by Next.
func (s *FileSource) Mask() uint64 { return s.mask }

// Close releases the underlying file. Next calls it automatically at
// exhaustion; callers abandoning a stream early should call it themselves.
func (s *FileSource) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

func init() {
	// The disk corpus as a plannable source: spec {kind: "file", path, lo,
	// hi, n}. Lo = Hi = 0 means the whole corpus. Spec.N, when nonzero,
	// must match the file header — the guard that a plan built against one
	// corpus is not silently executed against a regenerated file of a
	// different size on some worker machine.
	engine.RegisterSource("file", func(spec engine.SourceSpec) (engine.Source, error) {
		src, err := NewFileSource(spec.Path, spec.Lo, spec.Hi)
		if err != nil {
			return nil, err
		}
		if spec.N != 0 && spec.N != src.N() {
			src.Close()
			return nil, fmt.Errorf("corpus: spec names n=%d, %s holds n=%d graphs", spec.N, spec.Path, src.N())
		}
		return src, nil
	})
	// The matching splitter for `serve -parallel`: an explicit record range
	// cuts into contiguous sub-ranges, each opening its own fd and seeking
	// to its own offset, so the sub-shards stream concurrently. The whole-
	// corpus default (Lo = Hi = 0) declines — splitting it would need the
	// header's Count, and reading files inside a splitter (which must never
	// fail) is the wrong place for I/O; plan-built specs always carry
	// explicit ranges anyway.
	engine.RegisterSourceSplitter("file", func(spec engine.SourceSpec, parts int) ([]engine.SourceSpec, bool) {
		if spec.Lo == 0 && spec.Hi == 0 {
			return nil, false
		}
		if spec.Lo > spec.Hi {
			return nil, false
		}
		return engine.SplitSourceRange(spec, spec.Lo, spec.Hi, parts)
	})
}
