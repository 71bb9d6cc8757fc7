package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"refereenet/internal/engine"
)

// The coordinator's worker coupling is a Transport: something that can dial
// a connection that round-trips one Unit to its Result. Two implementations
// cover the deployment spectrum —
//
//   - InProcess: the unit executes in this process by direct call, on the
//     coordinator slot's goroutine or over the caller's Executor pool — no
//     framing, no codec, no extra goroutine;
//   - TCP: a long-lived `refereesim serve` daemon reached over the network,
//     speaking the JSON-lines Unit/Result protocol (docs/sweep-protocol.md)
//     behind a registry-fingerprint handshake, with reconnect-with-backoff
//     failover across a daemon address list, on one machine or many.
//
// The coordinator treats both identically: a failed round-trip is the death
// of the in-flight unit's worker, the unit goes back through the
// retry/requeue path, and the slot redials. That mapping is what keeps any
// sharded sweep byte-identical to the monolithic run regardless of which
// transport carried the units. ChaosTransport wraps either one.

// Transport dials worker connections for coordinator slots. Implementations
// must be safe for concurrent Dial calls: every slot of a fleet dials
// through the same value.
type Transport interface {
	// Dial establishes one worker connection, ready for RoundTrip.
	Dial() (Conn, error)
	// Name describes the transport in coordinator logs.
	Name() string
}

// Conn is one live worker stream. It is used by a single coordinator slot at
// a time and need not be safe for concurrent use.
type Conn interface {
	// RoundTrip sends one unit and reads its result. Any transport error — a
	// dropped TCP connection surfaces as EOF here — is returned so the caller
	// can fail the unit and redial.
	RoundTrip(u Unit) (Result, error)
	// Close releases the connection.
	Close() error
}

// Unit is one work item on the coordinator→worker wire: a shard spec tagged
// with its position in the plan. IDs are plan indices, so they are stable
// across runs of the same plan — the property checkpoint resume relies on.
type Unit struct {
	ID   int              `json:"id"`
	Spec engine.ShardSpec `json:"spec"`
}

// Result is the worker→coordinator reply (and the manifest checkpoint
// record): the merged stats of one executed unit, or the execution error.
type Result struct {
	ID    int               `json:"id"`
	Stats engine.BatchStats `json:"stats"`
	Err   string            `json:"err,omitempty"`
}

// InProcess executes units in this process by direct call: Executor.Execute
// on the caller's pool, or — with a nil Executor — on the calling coordinator
// slot's goroutine. The value is stateless, so it is its own connection. A
// spec that fails to resolve or panics comes back as Result.Err, exactly as
// from a daemon; RoundTrip itself never fails.
type InProcess struct {
	// Executor is the caller's pool; the caller owns its lifecycle. Nil runs
	// each unit on the slot's goroutine, so the sweep's concurrency is its
	// slot count.
	Executor *Executor
}

// Name implements Transport.
func (InProcess) Name() string { return "inprocess" }

// Dial implements Transport.
func (t InProcess) Dial() (Conn, error) { return t, nil }

// RoundTrip implements Conn.
func (t InProcess) RoundTrip(u Unit) (Result, error) { return t.Executor.Execute(u), nil }

// Close implements Conn.
func (InProcess) Close() error { return nil }

// maxLineBytes bounds one JSON line on the wire. Specs and stats are small;
// a line this long means a corrupted stream.
const maxLineBytes = 1 << 20

// lineConn implements Conn over a newline-delimited JSON byte stream: the
// TCP transport's round-trip engine, and the daemon side's reader. The
// handshake goes through enc (encoding/json); units and results go through
// the connection's wireCodec, whose reused buffer makes one write per unit
// and whose decoder reads the canonical Result line without reflection,
// falling back to json.Unmarshal for any other valid JSON.
type lineConn struct {
	enc     *json.Encoder
	w       io.Writer
	in      *bufio.Scanner
	codec   wireCodec
	closeFn func() error
	addr    string // daemon endpoint; "" on the daemon side
}

// Endpoint names the daemon address this connection reaches. The
// coordinator feeds it to the fleet's circuit breaker so unit-level failures
// count against the endpoint, not just dial failures.
func (c *lineConn) Endpoint() string { return c.addr }

func newLineConn(r io.Reader, w io.Writer) *lineConn {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &lineConn{enc: json.NewEncoder(w), w: w, in: sc}
}

func (c *lineConn) RoundTrip(u Unit) (Result, error) {
	line, err := c.codec.unit(u)
	if err != nil {
		return Result{}, fmt.Errorf("send unit: %w", err)
	}
	if _, err := c.w.Write(line); err != nil {
		return Result{}, fmt.Errorf("send unit: %w", err)
	}
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return Result{}, fmt.Errorf("read result: %w", err)
		}
		return Result{}, fmt.Errorf("worker closed stream mid-unit")
	}
	res, err := c.codec.decodeResult(c.in.Bytes())
	if err != nil {
		return Result{}, fmt.Errorf("malformed result line: %w", err)
	}
	return res, nil
}

func (c *lineConn) Close() error {
	if c.closeFn != nil {
		return c.closeFn()
	}
	return nil
}

// TCP dials `refereesim serve` daemons. Each Dial walks the address list
// round-robin from Start, with capped exponential backoff between full
// cycles — jittered deterministically from Seed so fleet-mates don't redial
// in lockstep after a daemon restart — so a killed daemon fails over to its
// fleet mates and a restarted one is picked up on the next redial:
// connection loss maps onto the coordinator's existing retry path instead of
// wedging a slot. An optional per-endpoint Breaker quarantines addresses
// that keep failing; when every address is quarantined at once the walk
// force-probes them all anyway (quarantine degrades, it never deadlocks).
type TCP struct {
	// Addrs lists the daemon endpoints ("host:port"). Must not be empty.
	Addrs []string
	// Start indexes the address this slot prefers; the slots of a sweep use
	// distinct Starts so they spread across daemons.
	Start int
	// Cycles is how many full passes over Addrs to attempt before giving up
	// (default 3).
	Cycles int
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// Backoff is the base delay between passes (default 100ms). The delay
	// doubles per pass up to MaxBackoff and is multiplied by a
	// deterministic jitter in [0.5, 1.5) derived from Seed, Start and the
	// pass number.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Seed drives the deterministic backoff jitter.
	Seed int64
	// Breaker, when non-nil, is consulted per address: quarantined
	// endpoints are skipped while healthy ones remain, dial failures and
	// successes are recorded.
	Breaker *Breaker
	// Log, when non-nil, receives failover notices.
	Log io.Writer
}

// ParseAddrs parses the `-connect` flag vocabulary: daemon addresses
// ("host:port") separated by ',' — or ';', accepted as a synonym. Repeat an
// address to hold two concurrent streams into one daemon. Empty entries,
// such as a trailing separator, are skipped.
func ParseAddrs(s string) ([]string, error) {
	var addrs []string
	for _, a := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ';' }) {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, ":") {
			return nil, fmt.Errorf("sweep: address %q is not host:port", a)
		}
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("sweep: no addresses in %q", s)
	}
	return addrs, nil
}

// Name implements Transport.
func (t *TCP) Name() string { return fmt.Sprintf("tcp %v", t.Addrs) }

// pinned implements slotPinner: a copy preferring the slot's address, with
// the Breaker (a pointer) still shared fleet-wide.
func (t *TCP) pinned(slot int) Transport {
	p := *t
	p.Start = slot
	return &p
}

// jitterBackoff is the delay before pass `cycle` (≥ 1): base·2^(cycle-1)
// capped at max, scaled by a deterministic jitter in [0.5, 1.5) so
// fleet-mates redialing after the same daemon restart spread out instead of
// thundering back in lockstep — reproducibly, because the jitter is a hash
// of (seed, slot, cycle), not a global RNG draw.
func jitterBackoff(base, max time.Duration, seed int64, slot, cycle int) time.Duration {
	d := base << uint(cycle-1)
	if d > max || d <= 0 {
		d = max
	}
	h := mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ mix64(uint64(slot)+1) ^ uint64(cycle))
	frac := float64(h>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.5 + frac))
}

// Dial implements Transport: connect, then handshake, verifying that the
// daemon speaks this wire version and links the same registries.
func (t *TCP) Dial() (Conn, error) {
	cycles := t.Cycles
	if cycles < 1 {
		cycles = 3
	}
	timeout := t.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	backoff := t.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := t.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	var lastErr error
	for cycle := 0; cycle < cycles; cycle++ {
		if cycle > 0 {
			time.Sleep(jitterBackoff(backoff, maxBackoff, t.Seed, t.Start, cycle))
		}
		tried := 0
		for pass := 0; pass < 2; pass++ {
			for i := range t.Addrs {
				addr := t.Addrs[(t.Start+i)%len(t.Addrs)]
				if pass == 0 && !t.Breaker.Allow(addr) {
					continue
				}
				tried++
				conn, err := t.dialOne(addr, timeout)
				if err == nil {
					t.Breaker.Success(addr)
					return conn, nil
				}
				t.Breaker.Failure(addr)
				lastErr = fmt.Errorf("dial %s: %w", addr, err)
				if t.Log != nil {
					fmt.Fprintf(t.Log, "sweep: %v\n", lastErr)
				}
			}
			if tried > 0 {
				break
			}
			// Every endpoint is quarantined: force-probe the whole list
			// rather than wedging the slot — a wrong quarantine must cost
			// latency, never liveness.
			if t.Log != nil {
				fmt.Fprintf(t.Log, "sweep: all endpoints quarantined %v, force-probing\n", t.Breaker.Quarantined())
			}
		}
	}
	return nil, lastErr
}

func (t *TCP) dialOne(addr string, timeout time.Duration) (Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn := newLineConn(nc, nc)
	conn.closeFn = nc.Close
	conn.addr = addr
	// Bound the handshake, not the sweep: a unit may legitimately run for
	// minutes, so the deadline is lifted once the daemon has identified
	// itself.
	nc.SetDeadline(time.Now().Add(timeout))
	if err := clientHandshake(conn); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return conn, nil
}

// ProtocolVersion is the version of the sweep wire protocol — the handshake
// plus Unit/Result framing documented in docs/sweep-protocol.md. It is bumped
// on any incompatible change to the framing or the JSON field vocabulary, and
// the handshake refuses a peer speaking a different version.
const ProtocolVersion = 1

// helloMagic opens every handshake line, so a sweep endpoint dialed by
// something else (or a coordinator pointed at a non-sweep port) fails fast
// with a clear error instead of a JSON parse failure mid-stream.
const helloMagic = "refereenet-sweep"

// hello is the handshake frame both sides exchange before any units flow.
// The server echoes its own identity; Err carries a rejection reason back to
// the client before the server closes.
type hello struct {
	Magic       string `json:"magic"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Err         string `json:"err,omitempty"`
}

func localHello() hello {
	return hello{
		Magic:       helloMagic,
		Version:     ProtocolVersion,
		Fingerprint: engine.RegistryFingerprint(),
	}
}

// checkPeer validates the peer's hello against ours. Mismatched registries
// mean the two binaries would resolve the same ShardSpec differently — the
// silent divergence the handshake exists to prevent.
func (h hello) checkPeer(peer hello) error {
	switch {
	case peer.Magic != helloMagic:
		return fmt.Errorf("peer is not a sweep endpoint (magic %q)", peer.Magic)
	case peer.Version != h.Version:
		return fmt.Errorf("peer speaks sweep protocol v%d, this binary v%d", peer.Version, h.Version)
	case peer.Fingerprint != h.Fingerprint:
		return fmt.Errorf("peer registry fingerprint %.12s… differs from ours %.12s… (stale binary?)",
			peer.Fingerprint, h.Fingerprint)
	}
	return nil
}

// clientHandshake is the coordinator side: send our hello, read the
// daemon's, and verify both directions agree.
func clientHandshake(c *lineConn) error {
	ours := localHello()
	if err := c.enc.Encode(ours); err != nil {
		return fmt.Errorf("handshake send: %w", err)
	}
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return fmt.Errorf("handshake read: %w", err)
		}
		return fmt.Errorf("handshake read: connection closed")
	}
	var peer hello
	if err := json.Unmarshal(c.in.Bytes(), &peer); err != nil {
		return fmt.Errorf("handshake: malformed server hello: %w", err)
	}
	if peer.Err != "" {
		return fmt.Errorf("handshake rejected by server: %s", peer.Err)
	}
	if err := ours.checkPeer(peer); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	return nil
}

// serverHandshake is the daemon side: read the coordinator's hello, reply
// with ours (carrying the rejection reason on mismatch), and report whether
// units may flow.
func serverHandshake(c *lineConn) error {
	ours := localHello()
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return fmt.Errorf("handshake read: %w", err)
		}
		return fmt.Errorf("handshake read: connection closed")
	}
	var peer hello
	if err := json.Unmarshal(c.in.Bytes(), &peer); err != nil {
		return fmt.Errorf("handshake: malformed client hello: %w", err)
	}
	reply := ours
	mismatch := ours.checkPeer(peer)
	if mismatch != nil {
		reply.Err = mismatch.Error()
	}
	if err := c.enc.Encode(reply); err != nil {
		return fmt.Errorf("handshake send: %w", err)
	}
	return mismatch
}
