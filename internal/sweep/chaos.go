package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosTransport is a deterministic fault-injection decorator over any
// Transport: it forwards dials and round-trips to the wrapped transport and,
// on a reproducible seed-driven schedule, injects the failure modes a
// multi-hour fleet sweep will eventually hit for real —
//
//   - drop: the connection resets before the unit executes (a daemon killed
//     mid-dispatch);
//   - lose: the unit executes but its result line never arrives (a connection
//     dropped between the worker's flush and the coordinator's read — the
//     case that forces duplicate execution and makes the execute-twice
//     idempotency contract load-bearing);
//   - hang: the round-trip stalls for HangFor before proceeding (a wedged
//     daemon — what Options.UnitTimeout and Options.Hedge exist to reclaim);
//   - delay: DelayFor of added tail latency;
//   - corrupt: the unit executes but its result frame comes back garbled,
//     surfacing as a transport error (framing corruption on the wire);
//   - dialfail: the dial attempt itself fails (what walks the breaker).
//
// The fault for a round-trip is a pure function of (Seed, unit ID, attempt
// number), so a given seed replays the same per-unit fault schedule no matter
// how goroutines interleave — a chaos soak that fails is re-runnable. At most
// one fault fires per attempt; rates are independent probabilities summed
// into one roll, so their total should stay ≤ 1.
//
// The injected faults are exactly the failure classes docs/sweep-protocol.md
// obliges coordinators to absorb, which is the acceptance bar: a seeded soak
// through ChaosTransport must merge to BatchStats byte-identical to a
// fault-free single-process run.
type ChaosTransport struct {
	inner Transport
	state *chaosState
}

// chaosState is shared across per-slot pinned copies of a ChaosTransport so
// attempt counting and fault totals stay global to the sweep.
type chaosState struct {
	opts     ChaosOptions
	mu       sync.Mutex
	attempts map[int]uint64 // per-unit round-trip attempt count
	dials    uint64
	counts   chaosCounters
}

// ChaosOptions configures the fault schedule. All rates are probabilities in
// [0, 1]; zero-valued options inject nothing.
type ChaosOptions struct {
	Seed     int64
	Drop     float64       // connection reset before the unit executes
	Lose     float64       // unit executes, result lost (duplicate execution follows)
	Hang     float64       // round-trip stalls HangFor
	Delay    float64       // round-trip delayed DelayFor
	Corrupt  float64       // unit executes, result frame corrupted
	DialFail float64       // dial attempt fails
	HangFor  time.Duration // default 1s
	DelayFor time.Duration // default 10ms
}

func (o ChaosOptions) hangFor() time.Duration {
	if o.HangFor > 0 {
		return o.HangFor
	}
	return time.Second
}

func (o ChaosOptions) delayFor() time.Duration {
	if o.DelayFor > 0 {
		return o.DelayFor
	}
	return 10 * time.Millisecond
}

// ChaosCounts reports how many of each fault actually fired.
type ChaosCounts struct {
	Drops, Losses, Hangs, Delays, Corruptions, DialFails int64
}

// Total sums every injected fault.
func (c ChaosCounts) Total() int64 {
	return c.Drops + c.Losses + c.Hangs + c.Delays + c.Corruptions + c.DialFails
}

type chaosCounters struct {
	drops, losses, hangs, delays, corruptions, dialFails atomic.Int64
}

// NewChaosTransport wraps inner with the given fault schedule.
func NewChaosTransport(inner Transport, opts ChaosOptions) *ChaosTransport {
	return &ChaosTransport{
		inner: inner,
		state: &chaosState{opts: opts, attempts: make(map[int]uint64)},
	}
}

// Name implements Transport.
func (t *ChaosTransport) Name() string { return "chaos(" + t.inner.Name() + ")" }

// Counts snapshots how many faults have fired so far.
func (t *ChaosTransport) Counts() ChaosCounts {
	c := &t.state.counts
	return ChaosCounts{
		Drops:       c.drops.Load(),
		Losses:      c.losses.Load(),
		Hangs:       c.hangs.Load(),
		Delays:      c.delays.Load(),
		Corruptions: c.corruptions.Load(),
		DialFails:   c.dialFails.Load(),
	}
}

// pinned implements slotPinner: slot pinning passes through to the wrapped
// transport while the fault schedule and counters stay shared.
func (t *ChaosTransport) pinned(slot int) Transport {
	if p, ok := t.inner.(slotPinner); ok {
		return &ChaosTransport{inner: p.pinned(slot), state: t.state}
	}
	return t
}

// Dial implements Transport, injecting dial failures on the schedule.
func (t *ChaosTransport) Dial() (Conn, error) {
	s := t.state
	s.mu.Lock()
	s.dials++
	n := s.dials
	s.mu.Unlock()
	if chaosRoll(s.opts.Seed, ^uint64(0), n) < s.opts.DialFail {
		s.counts.dialFails.Add(1)
		return nil, fmt.Errorf("chaos: injected dial failure (attempt %d)", n)
	}
	inner, err := t.inner.Dial()
	if err != nil {
		return nil, err
	}
	return &chaosConn{inner: inner, state: s}, nil
}

type chaosFault int

const (
	faultNone chaosFault = iota
	faultDrop
	faultLose
	faultHang
	faultDelay
	faultCorrupt
)

// fault decides this attempt's injection — deterministic in (seed, unit ID,
// attempt number), independent of goroutine interleaving.
func (s *chaosState) fault(unitID int) chaosFault {
	s.mu.Lock()
	s.attempts[unitID]++
	attempt := s.attempts[unitID]
	s.mu.Unlock()
	x := chaosRoll(s.opts.Seed, uint64(unitID), attempt)
	o := s.opts
	switch {
	case x < o.Drop:
		return faultDrop
	case x < o.Drop+o.Lose:
		return faultLose
	case x < o.Drop+o.Lose+o.Hang:
		return faultHang
	case x < o.Drop+o.Lose+o.Hang+o.Delay:
		return faultDelay
	case x < o.Drop+o.Lose+o.Hang+o.Delay+o.Corrupt:
		return faultCorrupt
	}
	return faultNone
}

// chaosRoll maps (seed, stream, attempt) to a uniform float64 in [0, 1).
func chaosRoll(seed int64, stream, attempt uint64) float64 {
	h := mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ mix64(stream+1) ^ mix64(attempt*0x100000001b3))
	return float64(h>>11) / (1 << 53)
}

// mix64 is splitmix64's finalizer: a cheap, well-distributed 64-bit hash used
// for the chaos schedule and the transports' deterministic backoff jitter.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// chaosConn wraps one live connection. A drop/lose/corrupt injection kills
// the connection (dead), mirroring a real reset: later round-trips fail until
// the coordinator slot redials.
type chaosConn struct {
	inner Conn
	state *chaosState
	dead  bool
}

// Endpoint forwards the wrapped connection's endpoint so breaker accounting
// survives chaos wrapping; non-endpoint conns report "".
func (c *chaosConn) Endpoint() string {
	if ec, ok := c.inner.(interface{ Endpoint() string }); ok {
		return ec.Endpoint()
	}
	return ""
}

func (c *chaosConn) RoundTrip(u Unit) (Result, error) {
	if c.dead {
		return Result{}, fmt.Errorf("chaos: connection already reset")
	}
	f := c.state.fault(u.ID)
	switch f {
	case faultDrop:
		c.dead = true
		c.state.counts.drops.Add(1)
		return Result{}, fmt.Errorf("chaos: injected connection reset before unit %d", u.ID)
	case faultHang:
		c.state.counts.hangs.Add(1)
		time.Sleep(c.state.opts.hangFor())
	case faultDelay:
		c.state.counts.delays.Add(1)
		time.Sleep(c.state.opts.delayFor())
	}
	res, err := c.inner.RoundTrip(u)
	if err != nil {
		return res, err
	}
	switch f {
	case faultLose:
		c.dead = true
		c.state.counts.losses.Add(1)
		return Result{}, fmt.Errorf("chaos: injected result loss for unit %d (unit executed)", u.ID)
	case faultCorrupt:
		c.dead = true
		c.state.counts.corruptions.Add(1)
		return Result{}, fmt.Errorf("chaos: injected corrupted result frame for unit %d", u.ID)
	}
	return res, nil
}

func (c *chaosConn) Close() error { return c.inner.Close() }

// ParseChaos parses the `-chaos` flag vocabulary: comma-separated key=value
// pairs. Keys: seed (int); drop, lose, hang, delay, corrupt, dialfail
// (rates in [0,1]); hangfor, delayfor (Go durations). Example:
//
//	seed=7,drop=0.05,hang=0.02,hangfor=3s,corrupt=0.01
func ParseChaos(s string) (*ChaosOptions, error) {
	opts := &ChaosOptions{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: %q is not key=value", part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: seed %q: %v", val, err)
			}
			opts.Seed = n
		case "hangfor", "delayfor":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s %q: %v", key, val, err)
			}
			if key == "hangfor" {
				opts.HangFor = d
			} else {
				opts.DelayFor = d
			}
		case "drop", "lose", "hang", "delay", "corrupt", "dialfail":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(r) || r < 0 || r > 1 {
				return nil, fmt.Errorf("chaos: rate %s=%q must be a number in [0,1]", key, val)
			}
			switch key {
			case "drop":
				opts.Drop = r
			case "lose":
				opts.Lose = r
			case "hang":
				opts.Hang = r
			case "delay":
				opts.Delay = r
			case "corrupt":
				opts.Corrupt = r
			case "dialfail":
				opts.DialFail = r
			}
		default:
			return nil, fmt.Errorf("chaos: unknown key %q", key)
		}
	}
	if total := opts.Drop + opts.Lose + opts.Hang + opts.Delay + opts.Corrupt; total > 1 {
		return nil, fmt.Errorf("chaos: fault rates sum to %.3f > 1", total)
	}
	return opts, nil
}
