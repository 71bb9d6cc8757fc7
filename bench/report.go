package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The metrics the JSON result line carries: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one. BENCHMARK.json names
// the same lists (checked by TestBenchmarkJSONMatchesCode). Everything else
// a run measures — op_p90_ms, op_tail_ms and peak_rss_mb among them, whose
// run-to-run spread is too wide to gate on (README.md) — is printed as an
// information line only.
var (
	endToEndMetrics = []string{"setup_s", "op_p50_ms", "cpu_ms_per_op", "rss_mb"}
	perLayerMetrics = []string{
		"source.ns_per_graph",
		"kernel.ns_per_graph",
		"engine.fold_ns_per_graph",
		"engine.batch_run_ns_per_graph",
		"engine.execute_shard_us_per_unit",
		"engine.shard_setup_us_per_unit",
		"sweep.codec_us_per_unit",
		"sweep.executor_self_us_per_unit",
		"sweep.roundtrip_self_us_per_unit",
		"sweep.slot_wait_ratio",
		"sweep.units_per_op",
		"trace.coverage_ratio",
		"trace.overhead_ratio",
	}
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects a run's metrics in the order they were measured.
type report struct {
	names  []string
	values map[string]metricValue
	notes  []string
}

func newReport() *report { return &report{values: map[string]metricValue{}} }

func (r *report) add(name string, value float64, unit string) {
	if _, dup := r.values[name]; !dup {
		r.names = append(r.names, name)
	}
	r.values[name] = metricValue{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes every metric as `name value unit`, then the notes.
func (r *report) print(w io.Writer) {
	for _, n := range r.names {
		v := r.values[n]
		fmt.Fprintf(w, "%s %s %s\n", n, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// result selects the metrics the JSON line carries. A selected metric the
// run did not measure is an error: the line must carry all of them.
func (r *report) result(trace bool, correct bool, attempted, failed int) (result, error) {
	names := endToEndMetrics
	if trace {
		names = perLayerMetrics
	}
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, n := range names {
		v, ok := r.values[n]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return res, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = v
	}
	return res, nil
}

// ladderRow is one layer of the traced run's ladder: the self time the
// replay attributes to it, summed over the replayed ops, and its share of
// those ops' slot time (slots × wall).
type ladderRow struct {
	Layer   string  `json:"layer"`
	TotalMS float64 `json:"total_ms"`
	Share   float64 `json:"share"`
}

// ladderLines renders the ladder as a table for the report's notes.
func ladderLines(rows []ladderRow) []string {
	out := []string{fmt.Sprintf("%-34s %12s %8s", "ladder layer (self time)", "total ms", "share")}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%-34s %12.3f %7.1f%%", r.Layer, r.TotalMS, 100*r.Share))
	}
	return out
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseCost is what the timed phase cost the process.
type phaseCost struct {
	elapsed, cpu time.Duration
	rss          float64 // the rssSampler metric, MiB
	hwm          float64 // VmHWM at the end of the phase, MiB
	start        time.Time
	cpu0         time.Duration
	sampler      *rssSampler
}

func startPhase() *phaseCost {
	return &phaseCost{start: time.Now(), cpu0: cpuTime(), sampler: startRSS()}
}

func (c *phaseCost) end() {
	c.elapsed, c.cpu = time.Since(c.start), cpuTime()-c.cpu0
	c.rss, c.hwm = c.sampler.end(), peakRSSMiB()
}

// endToEnd adds the end-to-end metrics of a timed phase of s.N ops.
func (r *report) endToEnd(cfg runConfig, s latencySummary, c *phaseCost) {
	if cfg.setupS > 0 {
		r.add("setup_s", cfg.setupS, "s")
	}
	r.add("op_p50_ms", s.P50, "ms")
	r.add("op_p90_ms", s.P90, "ms")
	r.add("op_tail_ms", s.Tail, "ms")
	r.add("op_tail_q", s.Q, "quantile")
	r.add("op_tail_beyond", float64(s.Beyond), "ops")
	r.add("cpu_ms_per_op", ms(c.cpu)/float64(s.N), "ms")
	r.add("rss_mb", c.rss, "MiB")
	r.add("peak_rss_mb", c.hwm, "MiB")
	r.add("cpu_util", c.cpu.Seconds()/c.elapsed.Seconds()/slots, "ratio")
	r.add("ops", float64(s.N), "ops")
}

// rssSampler samples the process's resident set every 10 ms while it runs.
// Its metric is the median, over the run's one-second windows, of each
// window's largest sample: the memory the ops hold at their peaks, without
// the one-off spikes that make the process's all-time high-water mark
// (peak_rss_mb) swing with garbage-collector timing.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		var peaks []float64
		window, peak := 0, rssMiB()
		for {
			select {
			case <-s.stop:
				if peak > 0 {
					peaks = append(peaks, peak)
				}
				s.done <- median(peaks)
				return
			case <-tick.C:
			}
			if w := int(time.Since(start) / time.Second); w != window {
				peaks = append(peaks, peak)
				window, peak = w, 0
			}
			peak = max(peak, rssMiB())
		}
	}()
	return s
}

// end stops the sampler and returns the metric in MiB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	return <-s.done
}

// rssMiB is the process's current resident set in MiB.
func rssMiB() float64 {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(buf))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

func writeJSONLine(w io.Writer, v interface{}) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
