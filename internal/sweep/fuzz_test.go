package sweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"refereenet/internal/engine"
)

// FuzzServeUnits throws arbitrary bytes at the daemon side of a connection —
// the handshake, then the Unit line reader — with a stub exec, so fuzzed
// specs never run. Whatever the coordinator sends, the daemon must not
// panic, and every line it writes back must decode: a hello during the
// handshake, a Result after it.
func FuzzServeUnits(f *testing.F) {
	line := func(v interface{}) []byte {
		buf, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return append(buf, '\n')
	}
	greet := line(localHello())
	unit := line(Unit{ID: 3, Spec: engine.ShardSpec{Protocol: "hash16",
		Source: engine.SourceSpec{Kind: "gray", N: 5, Lo: 0, Hi: 32}}})
	foreign := localHello()
	foreign.Fingerprint = "deadbeef"
	future := localHello()
	future.Version = ProtocolVersion + 1

	f.Add(append(append([]byte{}, greet...), unit...))
	f.Add(append(append(append([]byte{}, greet...), '\n'), unit...)) // blank line between frames
	f.Add(append(append([]byte{}, greet...), "{\"id\":1,\"spec\":"...))
	f.Add(append(append([]byte{}, greet...), "not json\n"...))
	// Valid but non-canonical unit lines: the codec's json.Unmarshal fallback.
	f.Add(append(append([]byte{}, greet...),
		"{\"spec\":{\"source\":{\"hi\":32,\"kind\":\"gray\",\"n\":5},\"protocol\":\"hash16\"},\"id\":3}\n"...))
	f.Add(append(append([]byte{}, greet...),
		"{ \"id\": 3, \"spec\": { \"protocol\": \"hash16\", \"config\": {}, \"source\": { \"kind\": \"gray\", \"n\": 5, \"hi\": 32 } } }\n"...))
	f.Add(line(foreign))
	f.Add(line(future))
	f.Add([]byte("{\"magic\":\"http-not-sweep\"}\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var hs, out bytes.Buffer
		conn := newLineConn(bytes.NewReader(data), &hs)
		if err := serverHandshake(conn); err == nil {
			stub := func(u Unit) Result { return Result{ID: u.ID, Stats: engine.BatchStats{Graphs: 1}} }
			serveUnits(conn.in, &out, stub) // a stream error is a legal way to stop
		}
		for dec := json.NewDecoder(bytes.NewReader(hs.Bytes())); dec.More(); {
			var h hello
			if err := dec.Decode(&h); err != nil {
				t.Fatalf("handshake reply %q does not decode: %v", hs.Bytes(), err)
			}
		}
		for dec := json.NewDecoder(bytes.NewReader(out.Bytes())); dec.More(); {
			var res Result
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("result stream %q does not decode: %v", out.Bytes(), err)
			}
		}
	})
}
