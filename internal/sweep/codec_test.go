package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"refereenet/internal/engine"
)

// units6 is a units-n6-shaped Unit: one Gray window of the n = 6 space.
var units6 = Unit{ID: 311, Spec: engine.ShardSpec{Protocol: "oracle-conn", Decide: true,
	Config: engine.Config{N: 6}, Source: engine.SourceSpec{Kind: "gray", N: 6, Lo: 31744, Hi: 31872}}}

// results6 is units6's Result.
var results6 = Result{ID: 311, Stats: engine.BatchStats{Graphs: 128, TotalBits: 4608,
	MaxBits: 6, MaxN: 6, Accepted: 101, Rejected: 27}}

// codecCases covers the fast encoder and every reason it hands a value to
// json.Marshal: a string that needs escaping, a non-zero P, a NaN P.
func codecCases() []any {
	return []any{
		Unit{}, Result{},
		units6, results6,
		Unit{ID: -7, Spec: engine.ShardSpec{Protocol: "degeneracy", Sched: "async",
			Config: engine.Config{K: -1, Seed: math.MinInt64},
			Source: engine.SourceSpec{Kind: "family", Family: "ktree", Count: 5, K: 3, Seed: math.MaxInt64}}},
		Unit{ID: 1, Spec: engine.ShardSpec{Config: engine.Config{Seed: 4},
			Source: engine.SourceSpec{Kind: "file", Lo: math.MaxUint64, Path: "/tmp/a b.corpus"}}},
		Unit{ID: 2, Spec: engine.ShardSpec{Protocol: "a\"b", Source: engine.SourceSpec{Kind: "gray"}}},
		Unit{ID: 3, Spec: engine.ShardSpec{Protocol: "x<y>&z", Source: engine.SourceSpec{Kind: "é\u2028\x00"}}},
		Unit{ID: 4, Spec: engine.ShardSpec{Protocol: "gnp", Source: engine.SourceSpec{Kind: "family", P: 0.25}}},
		Unit{ID: 5, Spec: engine.ShardSpec{Source: engine.SourceSpec{P: math.Copysign(0, -1)}}},
		Unit{ID: 6, Spec: engine.ShardSpec{Source: engine.SourceSpec{P: math.NaN()}}},
		Result{ID: math.MaxInt64, Stats: engine.BatchStats{Graphs: math.MaxUint64, MaxBits: math.MinInt64}},
		Result{ID: 9, Err: "plain failure"},
		Result{ID: 9, Err: `engine: unknown protocol "nope"`},
		Result{ID: 9, Err: "tab\there"},
	}
}

// encode runs the codec's encoder on a Unit or Result.
func encode(t testing.TB, v any) ([]byte, error) {
	t.Helper()
	var c wireCodec
	var line []byte
	var err error
	switch v := v.(type) {
	case Unit:
		line, err = c.unit(v)
	case Result:
		line, err = c.result(v)
	default:
		t.Fatalf("encode: %T", v)
	}
	return bytes.TrimSuffix(line, []byte("\n")), err
}

// decode runs the codec's decoder into a fresh value of v's type and
// reports whether the reflection-free path took the line.
func decode(t testing.TB, line []byte, v any) (got any, fast bool, err error) {
	t.Helper()
	var c wireCodec
	switch v.(type) {
	case Unit:
		_, fast = c.fastUnit(line)
		got, err = c.decodeUnit(line)
		return got, fast, err
	case Result:
		_, fast = c.fastResult(line)
		got, err = c.decodeResult(line)
		return got, fast, err
	}
	t.Fatalf("decode: %T", v)
	return nil, false, nil
}

// unmarshalLike is json.Unmarshal into a fresh value of v's type.
func unmarshalLike(line []byte, v any) (any, error) {
	p := reflect.New(reflect.TypeOf(v))
	err := json.Unmarshal(line, p.Interface())
	return p.Elem().Interface(), err
}

func TestCodecMatchesMarshal(t *testing.T) {
	for _, v := range codecCases() {
		want, wantErr := json.Marshal(v)
		got, err := encode(t, v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: encode error %v, json.Marshal %v", v, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n codec %s\n  json %s", v, got, want)
		}
		back, _, err := decode(t, got, v)
		ref, refErr := unmarshalLike(got, v)
		if err != nil || refErr != nil || !reflect.DeepEqual(back, ref) {
			t.Fatalf("%s: decoded %+v (%v), json.Unmarshal %+v (%v)", got, back, err, ref, refErr)
		}
	}
}

// fillNonZero sets every exported field reachable from v to a distinct
// non-zero value, recursing into structs. A field kind the codec cannot
// spell fails the test, so a new slice or map field forces a codec update.
func fillNonZero(t *testing.T, v reflect.Value, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), next)
			}
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(*next * 1000003)
	case reflect.Uint64:
		v.SetUint(uint64(*next) << 40)
	case reflect.String:
		v.SetString(strings.Repeat("s", int(*next%5)+1) + "-" + v.Type().Name())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	default:
		t.Fatalf("field of kind %s: teach the wire codec to encode it", v.Kind())
	}
}

// TestCodecCoversEveryField sets every exported field of Unit, Result and
// the engine types inside them — ShardSpec, Config, SourceSpec, BatchStats —
// and requires json.Marshal's bytes from the encoder and the same value back
// from the reflection-free decoder. A field added in engine without a codec
// update fails here. SourceSpec.P is the one field the codec leaves to
// json.Marshal by design; it is zeroed for the fast-path check and set for
// the byte-identity check.
func TestCodecCoversEveryField(t *testing.T) {
	var next int64
	var u Unit
	fillNonZero(t, reflect.ValueOf(&u).Elem(), &next)
	var r Result
	fillNonZero(t, reflect.ValueOf(&r).Elem(), &next)

	withP := u
	u.Spec.Source.P = 0
	for _, v := range []any{u, r} {
		want, _ := json.Marshal(v)
		got, err := encode(t, v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%T with every field set:\n codec %s (%v)\n  json %s", v, got, err, want)
		}
		back, fast, err := decode(t, want, v)
		if err != nil || !fast || !reflect.DeepEqual(back, v) {
			t.Fatalf("%s: fast path %v decoded %+v (%v), want %+v", want, fast, back, err, v)
		}
	}
	want, _ := json.Marshal(withP)
	if got, err := encode(t, withP); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Unit with P set:\n codec %s (%v)\n  json %s", got, err, want)
	}
}

// TestCodecFallsBack feeds lines that are valid JSON but not the canonical
// form: the fast path must decline each, and the decoder must still return
// exactly what json.Unmarshal does.
func TestCodecFallsBack(t *testing.T) {
	units := []string{
		`{"spec":{"protocol":"hash16","config":{},"source":{"kind":"gray","n":5,"hi":32}},"id":3}`,
		`{"id": 3, "spec": {"protocol": "hash16", "config": {}, "source": {"kind": "gray"}}}`,
		`{"id":3,"spec":{"protocol":"hash16","config":{},"source":{"kind":"gray"}},"extra":1}`,
		`{"id":3,"spec":{"protocol":"hash16","config":{}}}`,
		`{"id":3,"spec":{"protocol":"hash\u0031\u0036","config":{},"source":{"kind":"gray"}}}`,
		`{"id":3,"spec":{"protocol":"hash16","config":{},"decide":false,"source":{"kind":"gray"}}}`,
		`{"id":3,"spec":{"protocol":"hash16","config":{"n":0},"source":{"kind":"gray","n":0}}}`,
		`{"id":3,"spec":{"protocol":"gnp","config":{},"source":{"kind":"family","p":0.25}}}`,
		`{"id":3,"spec":{"protocol":"gnp","config":{},"source":{"kind":"family","p":0}}}`,
		`{"id":03,"spec":{"protocol":"hash16","config":{},"source":{"kind":"gray"}}}`,
		`{"ID":3,"Spec":{"Protocol":"hash16","config":{},"source":{"kind":"gray"}}}`,
		`{"id":3,"spec":{"protocol":"hash16","config":{"k":2,"n":7},"source":{"kind":"gray"}}}`,
		`{"id":3,"spec":{"protocol":"hash16","config":{"n":7,},"source":{"kind":"gray"}}}`,
		`{"id":-0,"spec":{"protocol":"hash16","config":{},"source":{"kind":"gray"}}}`,
		`{"id":99999999999999999999,"spec":{"protocol":"hash16","config":{},"source":{"kind":"gray"}}}`,
		`{"id":3,"spec":{"protocol":"hash16","config":{},"source":{"kind":"gray","lo":18446744073709551616}}}`,
	}
	results := []string{
		`{"stats":{"graphs":32},"id":3}`,
		`{"id":3,"stats":{"graphs":32,"total_bits":512,"max_bits":16,"max_n":5,"accepted":0,"rejected":0,"errors":0},"err":""}`,
		`{"id":3, "stats":{"graphs":32,"total_bits":512,"max_bits":16,"max_n":5,"accepted":0,"rejected":0,"errors":0}}`,
		`{"id":3,"stats":{"graphs":32,"total_bits":512,"max_bits":16,"max_n":5,"accepted":0,"rejected":0,"errors":0},"err":"a\"b"}`,
		`{"id":3,"stats":{"graphs":32,"total_bits":512,"max_bits":16,"max_n":5,"accepted":0,"rejected":0,"errors":0,"path":1}}`,
		`{"id":3,"stats":{"graphs":3.2e1,"total_bits":512,"max_bits":16,"max_n":5,"accepted":0,"rejected":0,"errors":0}}`,
	}
	check := func(line string, v any) {
		got, fast, err := decode(t, []byte(line), v)
		if fast {
			t.Fatalf("fast path took non-canonical line %s", line)
		}
		ref, refErr := unmarshalLike([]byte(line), v)
		if (err != nil) != (refErr != nil) || (err == nil && !reflect.DeepEqual(got, ref)) {
			t.Fatalf("%s: decoded %+v (%v), json.Unmarshal %+v (%v)", line, got, err, ref, refErr)
		}
	}
	for _, line := range units {
		check(line, Unit{})
	}
	for _, line := range results {
		check(line, Result{})
	}
}

// TestSweepProtocolDocLines pins docs/sweep-protocol.md's Unit and Result
// example lines to the reference encoder's bytes.
func TestSweepProtocolDocLines(t *testing.T) {
	doc, err := os.ReadFile("../../docs/sweep-protocol.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{
		Unit{ID: 17, Spec: engine.ShardSpec{Protocol: "hash16", Sched: "serial", Config: engine.Config{N: 8},
			Source: engine.SourceSpec{Kind: "gray", N: 8, Lo: 100663296, Hi: 101711872}}},
		Result{ID: 17, Stats: engine.BatchStats{Graphs: 1048576, TotalBits: 117440512, MaxBits: 16, MaxN: 8}},
	} {
		line, err := encode(t, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(doc, append(append([]byte("\n"), line...), '\n')) {
			t.Errorf("docs/sweep-protocol.md lacks the reference encoding of its %T example:\n%s", v, line)
		}
	}
}

// FuzzUnitCodec checks the codec against encoding/json in both directions.
// Over arbitrary line bytes, the fast decoders either decline or return
// exactly what json.Unmarshal returns; over fuzzed field values, the
// encoders' bytes equal json.Marshal's.
func FuzzUnitCodec(f *testing.F) {
	for _, v := range codecCases() {
		line, _ := json.Marshal(v)
		f.Add(line, int64(-3), "hash16", "gray", uint64(1)<<35, 6, int64(7), true, "")
	}
	f.Add([]byte(`{"id":3,"spec":{"protocol":"hash16","config":{"n":5,"k":2,"seed":1},"source":{"kind":"gray"}}}`),
		int64(0), "", "", uint64(0), 0, int64(0), false, "x\"y")
	f.Add([]byte(`{"id":1,"stats":{"graphs":1,"total_bits":1,"max_bits":1,"max_n":1,"accepted":1,"rejected":1,"errors":1},"err":"e"}`),
		int64(math.MinInt64), "a<b", "\xff", uint64(math.MaxUint64), -1, int64(math.MaxInt64), true, "é")

	f.Fuzz(func(t *testing.T, line []byte, id int64, name, kind string, rank uint64, n int, seed int64, decide bool, errText string) {
		var c wireCodec
		if u, ok := c.fastUnit(line); ok {
			var ref Unit
			if err := json.Unmarshal(line, &ref); err != nil || !reflect.DeepEqual(u, ref) {
				t.Fatalf("%q: fast unit %+v, json.Unmarshal %+v (%v)", line, u, ref, err)
			}
		}
		if r, ok := c.fastResult(line); ok {
			var ref Result
			if err := json.Unmarshal(line, &ref); err != nil || !reflect.DeepEqual(r, ref) {
				t.Fatalf("%q: fast result %+v, json.Unmarshal %+v (%v)", line, r, ref, err)
			}
		}

		u := Unit{ID: int(id), Spec: engine.ShardSpec{Protocol: name, Sched: kind, Decide: decide,
			Config: engine.Config{N: n, K: int(seed % 5), Seed: seed},
			Source: engine.SourceSpec{Kind: kind, N: -n, Lo: rank, Hi: ^rank, Family: name,
				Count: n / 3, K: int(id % 7), Seed: -seed, Path: errText}}}
		r := Result{ID: int(id), Err: errText, Stats: engine.BatchStats{Graphs: rank, TotalBits: ^rank,
			MaxBits: n, MaxN: int(seed), Accepted: uint64(id), Rejected: uint64(seed), Errors: uint64(n)}}
		for _, v := range []any{u, r} {
			want, wantErr := json.Marshal(v)
			got, err := encode(t, v)
			if wantErr != nil || err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%+v:\n codec %s (%v)\n  json %s (%v)", v, got, err, want, wantErr)
			}
			back, _, err := decode(t, got, v)
			if err != nil {
				t.Fatalf("%s does not decode: %v", got, err)
			}
			ref, _ := unmarshalLike(got, v)
			if !reflect.DeepEqual(back, ref) {
				t.Fatalf("%s: decoded %+v, json.Unmarshal %+v", got, back, ref)
			}
		}
	})
}

// BenchmarkUnitCodec prices one units-n6-shaped round trip's envelope —
// encode the Unit, decode it, encode its Result, decode that — through
// encoding/json and through the wire codec. It fails if either path does
// not give back the values it started from.
func BenchmarkUnitCodec(b *testing.B) {
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ul, _ := json.Marshal(units6)
			var u Unit
			if err := json.Unmarshal(ul, &u); err != nil || u != units6 {
				b.Fatalf("unit round trip: %+v (%v)", u, err)
			}
			rl, _ := json.Marshal(results6)
			var r Result
			if err := json.Unmarshal(rl, &r); err != nil || r != results6 {
				b.Fatalf("result round trip: %+v (%v)", r, err)
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		var coord, daemon wireCodec
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ul, _ := coord.unit(units6)
			if u, err := daemon.decodeUnit(ul[:len(ul)-1]); err != nil || u != units6 {
				b.Fatalf("unit round trip: %+v (%v)", u, err)
			}
			rl, _ := daemon.result(results6)
			if r, err := coord.decodeResult(rl[:len(rl)-1]); err != nil || r != results6 {
				b.Fatalf("result round trip: %+v (%v)", r, err)
			}
		}
	})
}

// TestServeUnitsAnyEncoding drives the daemon's line loop with the same unit
// written canonically, with its fields reordered and with whitespace: each
// must execute as the same Unit and answer json.Marshal's Result bytes.
func TestServeUnitsAnyEncoding(t *testing.T) {
	canonical, _ := json.Marshal(units6)
	lines := []string{
		string(canonical),
		`{"spec":{"source":{"hi":31872,"lo":31744,"n":6,"kind":"gray"},"decide":true,"config":{"n":6},"protocol":"oracle-conn"},"id":311}`,
		` { "id" : 311 , "spec" : { "protocol" : "oracle-conn" , "config" : { "n" : 6 } , "decide" : true , "source" : { "kind" : "gray" , "n" : 6 , "lo" : 31744 , "hi" : 31872 } } }`,
	}
	in := bufio.NewScanner(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	var out bytes.Buffer
	var got []Unit
	if err := serveUnits(in, &out, func(u Unit) Result { got = append(got, u); return results6 }); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(results6)
	wantOut := strings.Repeat(string(want)+"\n", len(lines))
	if len(got) != len(lines) || out.String() != wantOut {
		t.Fatalf("served %d units, wrote %q; want %d units, %q", len(got), out.String(), len(lines), wantOut)
	}
	for i, u := range got {
		if u != units6 {
			t.Errorf("line %d decoded as %+v, want %+v", i, u, units6)
		}
	}
}
