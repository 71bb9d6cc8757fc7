package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"refereenet/internal/sweep"
)

// span is one timed interval of a traced run. Spans of one op share Trace
// (the op index); Parent is the ID of the span that caused this one, 0 for
// an op's root span.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Unit   int    `json:"unit"` // sweep unit ID, −1 when the span has none
	Slot   int    `json:"slot"` // worker slot (connection), −1 when none
	Job    string `json:"job,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run writes them out. It keeps
// the spans of ops below keep; every span, kept or not, adds its duration to
// total under its name, so ratios can cover every op without holding the
// hundreds of thousands of round trips a units-n6 run makes.
type recorder struct {
	epoch time.Time
	keep  int

	mu    sync.Mutex
	spans []span
	total map[string]time.Duration
	next  int
	slot  int // connections dialed in the current op
	trace int // current op
	root  int // current op's root span ID
}

func newRecorder(keep int) *recorder {
	return &recorder{epoch: time.Now(), keep: keep, total: map[string]time.Duration{}}
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// reserve hands out a span ID before the span is recorded, so its children
// can name it as their parent while it is still open.
func (r *recorder) reserve() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records s, with a fresh ID unless it carries a reserved one, and
// returns the ID.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.total[s.Name] += s.dur()
	if s.Trace < r.keep {
		r.spans = append(r.spans, s)
	}
	return s.ID
}

// open starts span s now and records it, with its interval, when the
// returned func is called.
func (r *recorder) open(s span) (int, func()) {
	start := time.Now()
	s.ID = r.reserve()
	return s.ID, func() {
		s.Start, s.End = r.ns(start), r.ns(time.Now())
		r.add(s)
	}
}

// beginOp opens op trace's root span, which the round trips recorded until
// the next beginOp hang under; the returned func closes it.
func (r *recorder) beginOp(trace int, name string) func() {
	id, end := r.open(span{Trace: trace, Name: name, Unit: -1, Slot: -1})
	r.mu.Lock()
	r.trace, r.root, r.slot = trace, id, 0
	r.mu.Unlock()
	return end
}

// recordingTransport is a sweep.Transport decorator that records one
// "roundtrip" span per unit, tagged with the op, the unit and the slot.
type recordingTransport struct {
	inner sweep.Transport
	rec   *recorder
}

func (t recordingTransport) Name() string { return "recorded " + t.inner.Name() }

func (t recordingTransport) Dial() (sweep.Conn, error) {
	c, err := t.inner.Dial()
	if err != nil {
		return nil, err
	}
	t.rec.mu.Lock()
	slot := t.rec.slot
	t.rec.slot++
	t.rec.mu.Unlock()
	return &recordingConn{inner: c, t: t, slot: slot}, nil
}

type recordingConn struct {
	inner sweep.Conn
	t     recordingTransport
	slot  int
}

func (c *recordingConn) RoundTrip(u sweep.Unit) (sweep.Result, error) {
	start := time.Now()
	res, err := c.inner.RoundTrip(u)
	end := time.Now()
	r := c.t.rec
	r.mu.Lock()
	trace, root := r.trace, r.root
	r.mu.Unlock()
	r.add(span{Trace: trace, Parent: root, Name: "roundtrip", Start: r.ns(start), End: r.ns(end), Unit: u.ID, Slot: c.slot})
	return res, err
}

func (c *recordingConn) Close() error { return c.inner.Close() }

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// [lo, hi).
func covered(lo, hi int64, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// traceFile is what a traced run writes: every span plus the per-layer
// metrics computed from them.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	Ladder   []ladderRow        `json:"ladder"`
	Metrics  map[string]float64 `json:"metrics"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	out := filepath.Join(dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", tf.Workload, tf.Seed))
	buf, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}
