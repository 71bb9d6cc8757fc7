package service

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The service's observability is a hand-rolled subset of the Prometheus text
// exposition format — counters, gauges and cumulative histograms — because
// the repo takes no external dependencies and the format itself is three
// line shapes. Everything a capacity question needs is here: how deep the
// queue runs (admission control headroom), how often the cache answers
// (the memoization story), how long units and jobs take (the latency
// distribution under load), and how hard the sweep layer had to retry
// (the SweepReport robustness counters, aggregated across jobs).

// histogram is a fixed-bucket cumulative latency histogram. Buckets are
// upper bounds in seconds; observations land in every bucket they are ≤
// (the Prometheus cumulative convention), plus the implicit +Inf bucket.
type histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	count  uint64
}

// latencyBounds covers 100µs to ~100s exponentially — wide enough for both
// sub-millisecond cache-adjacent units and multi-minute n = 9 windows.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

func newHistogram() *histogram {
	return &histogram{bounds: latencyBounds, counts: make([]uint64, len(latencyBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	h.mu.Lock()
	h.sum += s
	h.count++
	i := 0
	for ; i < len(h.bounds); i++ {
		if s <= h.bounds[i] {
			break
		}
	}
	h.counts[i]++
	h.mu.Unlock()
}

// write renders the histogram in Prometheus text format under name.
func (h *histogram) write(w io.Writer, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

// quantile estimates the q-quantile (0 < q < 1) from the bucket counts by
// linear interpolation inside the winning bucket; the exposition format
// carries the raw buckets.
func (h *histogram) quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := q * float64(h.count)
	cum := 0.0
	lower := 0.0
	for i, b := range h.bounds {
		next := cum + float64(h.counts[i])
		if next >= target {
			if h.counts[i] == 0 {
				return b
			}
			return lower + (b-lower)*(target-cum)/float64(h.counts[i])
		}
		cum = next
		lower = b
	}
	return h.bounds[len(h.bounds)-1]
}

func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// metrics is the service's counter page. All fields are monotonically
// increasing except the gauges, which are sampled live at scrape time by
// Server.writeMetrics.
type metrics struct {
	jobsSubmitted  atomic.Uint64 // new jobs admitted to the queue
	jobsCompleted  atomic.Uint64
	jobsFailed     atomic.Uint64
	jobsRejected   atomic.Uint64 // 429s from admission control
	cacheHits      atomic.Uint64 // POSTs answered from the result cache
	cacheMisses    atomic.Uint64 // POSTs that created a new job
	coalesced      atomic.Uint64 // POSTs joined to an in-flight identical job
	cacheEvictions atomic.Uint64
	executions     atomic.Uint64 // plans actually executed (≤ submissions)

	// Aggregated SweepReport robustness counters across all executed jobs.
	unitRetries   atomic.Uint64
	unitRequeues  atomic.Uint64
	unitFailures  atomic.Uint64
	deadlineKills atomic.Uint64

	unitLatency *histogram
	jobLatency  *histogram
}

func newMetrics() *metrics {
	return &metrics{unitLatency: newHistogram(), jobLatency: newHistogram()}
}

// counterLine writes one counter with its TYPE header.
func counterLine(w io.Writer, name string, v uint64) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
}

// gaugeLine writes one gauge with its TYPE header.
func gaugeLine(w io.Writer, name string, v int) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
}
