package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The wire codec: Unit and Result lines without reflection. A unit or result
// is ~100 bytes and costs ~1 µs to execute on small sweeps, so encoding/json's
// reflection walk was a large share of a TCP round trip. The codec speaks
// exactly one dialect, the canonical form json.Marshal writes:
//
//   - the append-encoders write json.Marshal's bytes, field for field. A
//     value the codec does not spell itself — a string that needs JSON
//     escaping, a non-zero SourceSpec.P — is handed to json.Marshal whole,
//     so the bytes never differ;
//   - the decoders parse that canonical form, then re-encode what they
//     parsed and accept the line only if the bytes match. Any other valid
//     JSON (reordered or unknown fields, whitespace, escaped strings, a
//     float, explicit zeros) falls through to json.Unmarshal, which stays
//     the reference reader for third-party peers.
//
// The input selects the path; nothing configures it. wireCodec holds the
// reused buffers of one connection or manifest and is not safe for
// concurrent use.
type wireCodec struct {
	out   []byte // the last encoded line
	check []byte // the decoders' re-encoding
}

// unit returns u's JSON line, newline-terminated, in c's reused buffer; the
// bytes are valid until the next call on c.
func (c *wireCodec) unit(u Unit) ([]byte, error) {
	var err error
	c.out, err = appendUnit(c.out[:0], u)
	c.out = append(c.out, '\n')
	return c.out, err
}

// result is unit for a Result line.
func (c *wireCodec) result(r Result) ([]byte, error) {
	var err error
	c.out, err = appendResult(c.out[:0], r)
	c.out = append(c.out, '\n')
	return c.out, err
}

// decodeUnit decodes one Unit line (without its newline) exactly as
// json.Unmarshal into a zero Unit would.
func (c *wireCodec) decodeUnit(line []byte) (Unit, error) {
	if u, ok := c.fastUnit(line); ok {
		return u, nil
	}
	var u Unit
	err := json.Unmarshal(line, &u)
	return u, err
}

// decodeResult is decodeUnit for a Result line.
func (c *wireCodec) decodeResult(line []byte) (Result, error) {
	if r, ok := c.fastResult(line); ok {
		return r, nil
	}
	var r Result
	err := json.Unmarshal(line, &r)
	return r, err
}

// fastUnit is decodeUnit's reflection-free path; it declines (false) every
// line that is not exactly appendUnit's encoding of what it parsed.
func (c *wireCodec) fastUnit(line []byte) (Unit, bool) {
	p := lineParser{b: line}
	u := p.unit()
	if !p.ok() {
		return Unit{}, false
	}
	c.check, _ = appendUnit(c.check[:0], u) // parsed strings are plain and P is 0: no json.Marshal, no error
	return u, bytes.Equal(c.check, line)
}

// fastResult is fastUnit for a Result line.
func (c *wireCodec) fastResult(line []byte) (Result, bool) {
	p := lineParser{b: line}
	r := p.result()
	if !p.ok() {
		return Result{}, false
	}
	c.check, _ = appendResult(c.check[:0], r) // as in fastUnit
	return r, bytes.Equal(c.check, line)
}

// appendUnit appends json.Marshal(u) to dst.
func appendUnit(dst []byte, u Unit) ([]byte, error) {
	s := u.Spec
	if !plain(s.Protocol) || !plain(s.Sched) || !plain(s.Source.Kind) ||
		!plain(s.Source.Family) || !plain(s.Source.Path) || s.Source.P != 0 {
		return appendMarshal(dst, u)
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(u.ID), 10)
	dst = append(dst, `,"spec":{"protocol":"`...)
	dst = append(dst, s.Protocol...)
	dst = append(dst, '"')
	dst = appendStr(dst, `,"sched":"`, s.Sched)
	dst = append(dst, `,"config":{`...)
	mark := len(dst)
	dst = appendInt(dst, `,"n":`, int64(s.Config.N))
	dst = appendInt(dst, `,"k":`, int64(s.Config.K))
	dst = appendInt(dst, `,"seed":`, s.Config.Seed)
	if len(dst) > mark {
		dst = append(dst[:mark], dst[mark+1:]...) // the first field takes no comma
	}
	dst = append(dst, '}')
	if s.Decide {
		dst = append(dst, `,"decide":true`...)
	}
	src := s.Source
	dst = append(dst, `,"source":{"kind":"`...)
	dst = append(dst, src.Kind...)
	dst = append(dst, '"')
	dst = appendInt(dst, `,"n":`, int64(src.N))
	dst = appendUint(dst, `,"lo":`, src.Lo)
	dst = appendUint(dst, `,"hi":`, src.Hi)
	dst = appendStr(dst, `,"family":"`, src.Family)
	dst = appendInt(dst, `,"count":`, int64(src.Count))
	dst = appendInt(dst, `,"k":`, int64(src.K))
	dst = appendInt(dst, `,"seed":`, src.Seed)
	dst = appendStr(dst, `,"path":"`, src.Path)
	return append(dst, "}}}"...), nil
}

// appendResult appends json.Marshal(r) to dst.
func appendResult(dst []byte, r Result) ([]byte, error) {
	if !plain(r.Err) {
		return appendMarshal(dst, r)
	}
	st := r.Stats
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, int64(r.ID), 10)
	dst = append(dst, `,"stats":{"graphs":`...)
	dst = strconv.AppendUint(dst, st.Graphs, 10)
	dst = append(dst, `,"total_bits":`...)
	dst = strconv.AppendUint(dst, st.TotalBits, 10)
	dst = append(dst, `,"max_bits":`...)
	dst = strconv.AppendInt(dst, int64(st.MaxBits), 10)
	dst = append(dst, `,"max_n":`...)
	dst = strconv.AppendInt(dst, int64(st.MaxN), 10)
	dst = append(dst, `,"accepted":`...)
	dst = strconv.AppendUint(dst, st.Accepted, 10)
	dst = append(dst, `,"rejected":`...)
	dst = strconv.AppendUint(dst, st.Rejected, 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendUint(dst, st.Errors, 10)
	dst = append(dst, '}')
	dst = appendStr(dst, `,"err":"`, r.Err)
	return append(dst, '}'), nil
}

func appendMarshal(dst []byte, v any) ([]byte, error) {
	buf, err := json.Marshal(v)
	return append(dst, buf...), err
}

// plain reports whether json.Marshal writes s verbatim between its quotes:
// printable ASCII other than the quote, the backslash and the HTML
// characters it escapes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendInt appends an omitempty integer field, key carrying its comma:
// nothing when v is zero.
func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, v, 10)
}

// appendUint appends an omitempty unsigned field, key carrying its comma.
func appendUint(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendUint(dst, v, 10)
}

// appendStr appends an omitempty plain string field; key ends in the
// opening quote.
func appendStr(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, key...)
	dst = append(dst, s...)
	return append(dst, '"')
}

// lineParser reads the canonical form appendUnit and appendResult write. It
// is deliberately loose about what it need not check — omitted-versus-zero
// fields, leading zeros — because the decoders re-encode what it returns and
// compare; it only has to decline, never to misread, anything else.
type lineParser struct {
	b   []byte
	i   int
	bad bool
}

// ok reports whether the whole line was consumed without a mismatch.
func (p *lineParser) ok() bool { return !p.bad && p.i == len(p.b) }

// lit consumes s, or marks the parse bad.
func (p *lineParser) lit(s string) {
	if !p.opt(s) {
		p.bad = true
	}
}

// opt consumes s if the input continues with it.
func (p *lineParser) opt(s string) bool {
	if p.bad || len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// uint reads a decimal digit run as a uint64, marking overflow and an empty
// run bad.
func (p *lineParser) uint() uint64 {
	start := p.i
	var v uint64
	for ; p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			p.bad = true
			return 0
		}
		v = v*10 + d
	}
	if p.i == start {
		p.bad = true
	}
	return v
}

// int reads an optionally signed decimal integer that fits in bitSize bits.
func (p *lineParser) int(bitSize uint) int64 {
	neg := p.opt("-")
	u := p.uint()
	limit := uint64(1) << (bitSize - 1)
	switch {
	case neg && u <= limit:
		return -int64(u)
	case !neg && u < limit:
		return int64(u)
	}
	p.bad = true
	return 0
}

// str reads a string body of plain bytes up to its closing quote, which it
// consumes; an escape or any byte json.Marshal would escape declines.
func (p *lineParser) str() string {
	start := p.i
	for ; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
		if !plainByte(p.b[p.i]) {
			p.bad = true
			return ""
		}
	}
	if p.i == len(p.b) {
		p.bad = true
		return ""
	}
	p.i++
	return string(p.b[start : p.i-1])
}

func (p *lineParser) unit() Unit {
	var u Unit
	s := &u.Spec
	p.lit(`{"id":`)
	u.ID = int(p.int(strconv.IntSize))
	p.lit(`,"spec":{"protocol":"`)
	s.Protocol = p.str()
	if p.opt(`,"sched":"`) {
		s.Sched = p.str()
	}
	p.lit(`,"config":{`)
	if p.opt(`"n":`) {
		s.Config.N = int(p.int(strconv.IntSize))
		p.opt(",")
	}
	if p.opt(`"k":`) {
		s.Config.K = int(p.int(strconv.IntSize))
		p.opt(",")
	}
	if p.opt(`"seed":`) {
		s.Config.Seed = p.int(64)
	}
	p.lit("}") // a stray comma here fails the re-encode check
	s.Decide = p.opt(`,"decide":true`)
	src := &s.Source
	p.lit(`,"source":{"kind":"`)
	src.Kind = p.str()
	if p.opt(`,"n":`) {
		src.N = int(p.int(strconv.IntSize))
	}
	if p.opt(`,"lo":`) {
		src.Lo = p.uint()
	}
	if p.opt(`,"hi":`) {
		src.Hi = p.uint()
	}
	if p.opt(`,"family":"`) {
		src.Family = p.str()
	}
	if p.opt(`,"count":`) {
		src.Count = int(p.int(strconv.IntSize))
	}
	if p.opt(`,"k":`) {
		src.K = int(p.int(strconv.IntSize))
	}
	if p.opt(`,"seed":`) {
		src.Seed = p.int(64)
	}
	if p.opt(`,"path":"`) {
		src.Path = p.str()
	}
	p.lit("}}}")
	return u
}

func (p *lineParser) result() Result {
	var r Result
	st := &r.Stats
	p.lit(`{"id":`)
	r.ID = int(p.int(strconv.IntSize))
	p.lit(`,"stats":{"graphs":`)
	st.Graphs = p.uint()
	p.lit(`,"total_bits":`)
	st.TotalBits = p.uint()
	p.lit(`,"max_bits":`)
	st.MaxBits = int(p.int(strconv.IntSize))
	p.lit(`,"max_n":`)
	st.MaxN = int(p.int(strconv.IntSize))
	p.lit(`,"accepted":`)
	st.Accepted = p.uint()
	p.lit(`,"rejected":`)
	st.Rejected = p.uint()
	p.lit(`,"errors":`)
	st.Errors = p.uint()
	p.lit("}")
	if p.opt(`,"err":"`) {
		r.Err = p.str()
	}
	p.lit("}")
	return r
}
