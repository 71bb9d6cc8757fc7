// Command benchreport runs the repository benchmark suite, writes the
// results to BENCH_<date>.json, and compares them against the most recent
// previous baseline. It is the perf trajectory of this repo made durable:
// every optimisation PR runs it once and quotes the comparison table, and
// the next PR is measured against the file this one leaves behind.
//
// Usage:
//
//	go run ./cmd/benchreport                      # default suite, ./BENCH_<date>.json
//	go run ./cmd/benchreport -bench 'Enumerate'   # narrower suite
//	go run ./cmd/benchreport -benchtime 5x        # more iterations
//	go run ./cmd/benchreport -dir perf            # keep baselines in ./perf
//	go run ./cmd/benchreport -pkg .               # root package only
//
// Benchmarks outside the module's root package are named with their
// package path, e.g. internal/canon.BenchmarkExtendLevel/m=9.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"refereenet/internal/stats"
)

// Result is one benchmark's aggregated samples. With -count > 1 the same
// benchmark runs repeatedly; NsPerOp is the mean over SamplesNs, and the raw
// samples persist in the baseline so the *next* run can test significance
// against them.
type Result struct {
	Name        string    `json:"name"`
	Iterations  int64     `json:"iterations"`
	NsPerOp     float64   `json:"ns_per_op"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	SamplesNs   []float64 `json:"samples_ns,omitempty"`
}

// Report is the persisted baseline file.
type Report struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPU       string   `json:"cpu,omitempty"`
	Bench     string   `json:"bench"`
	BenchTime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

const defaultBench = "BenchmarkEnumerate|BenchmarkCountFamilies|BenchmarkCollisionSearch|BenchmarkLocalPhaseModes|BenchmarkGraphAlgorithms|BenchmarkRunBatch|BenchmarkVectorBatch|BenchmarkExecuteShard|BenchmarkSweepLocal|BenchmarkSweepTCP|BenchmarkPowerSumAccumulator|BenchmarkAdjacencyKey|BenchmarkCanonicalForm|BenchmarkCanonicalFormSymmetric|BenchmarkExtendLevel|BenchmarkSweepCanonVsGray|BenchmarkSweepCanonVector|BenchmarkClassSourceOpen|BenchmarkReferee|BenchmarkDecoderAblation"

// benchLine matches one line of `go test -bench -benchmem` output, e.g.
// "BenchmarkEnumerate/n=6-8  370  3212515 ns/op  0 B/op  0 allocs/op".
// Custom metrics (b.ReportMetric) print between ns/op and B/op, so the
// memory columns are matched on their own.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)
	memCols   = regexp.MustCompile(`\s(\d+) B/op\s+(\d+) allocs/op`)
)

func main() {
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1s", "value passed to go test -benchtime (time-based by default: fixed-count runs like 1x are too noisy to compare)")
	dir := flag.String("dir", ".", "directory holding BENCH_<date>.json baselines")
	pkgs := flag.String("pkg", ". ./internal/canon", "space-separated packages to benchmark")
	dry := flag.Bool("n", false, "run and compare but do not write a new baseline")
	force := flag.Bool("force", false, "overwrite an existing baseline for today")
	count := flag.Int("count", 5, "repetitions per benchmark (go test -count); ≥ 2 enables Welch's t-test significance flags on the speedup ratios")
	flag.Parse()

	report, raw, err := runSuite(*bench, *benchtime, strings.Fields(*pkgs), *count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n%s", err, raw)
		os.Exit(1)
	}
	prev, prevPath := loadLatest(*dir)
	printComparison(report, prev, prevPath)
	printPaired(report)

	if *dry {
		fmt.Println("\n(dry run: baseline not written)")
		return
	}
	out := filepath.Join(*dir, "BENCH_"+report.Date+".json")
	if _, err := os.Stat(out); err == nil && !*force {
		// A committed baseline is the published record another PR is
		// measured against; never clobber it silently.
		fmt.Fprintf(os.Stderr, "benchreport: %s already exists — rerun with -force to overwrite or -n for a dry run\n", out)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: encode: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d benchmarks)\n", out, len(report.Results))
}

// runSuite shells out to go test and parses the benchmark output. With
// count > 1 every benchmark appears count times; the repeated lines fold
// into one Result per name, samples preserved for the significance test.
func runSuite(bench, benchtime string, pkgs []string, count int) (*Report, string, error) {
	if count < 1 {
		count = 1
	}
	mod, err := exec.Command("go", "list", "-m").Output()
	if err != nil {
		return nil, "", fmt.Errorf("go list -m: %w", err)
	}
	modPath := strings.TrimSpace(string(mod))
	// The default suite at -count 5 outlasts go test's 10-minute default
	// timeout on a 2-vCPU host, so the hang guard is set explicitly. go test
	// runs the packages' benchmarks one package at a time.
	args := append([]string{"test", "-run", "^$", "-bench", bench, "-timeout", "1h",
		"-benchmem", "-benchtime", benchtime, "-count", strconv.Itoa(count)}, pkgs...)
	raw, err := exec.Command("go", args...).CombinedOutput()
	out := string(raw)
	if err != nil {
		return nil, out, fmt.Errorf("go test: %w", err)
	}
	r := &Report{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Bench:     bench,
		BenchTime: benchtime,
	}
	index := map[string]int{}
	prefix := "" // package qualifier of the benchmarks being parsed
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			r.CPU = strings.TrimSpace(cpu)
			continue
		}
		if pkg, ok := strings.CutPrefix(line, "pkg:"); ok {
			prefix = ""
			if rel, ok := strings.CutPrefix(strings.TrimSpace(pkg), modPath+"/"); ok {
				prefix = rel + "."
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		name := prefix + m[1]
		i, ok := index[name]
		if !ok {
			i = len(r.Results)
			index[name] = i
			r.Results = append(r.Results, Result{Name: name})
		}
		res := &r.Results[i]
		res.Iterations = iters
		res.SamplesNs = append(res.SamplesNs, ns)
		if mem := memCols.FindStringSubmatch(line); mem != nil {
			res.BytesPerOp, _ = strconv.ParseInt(mem[1], 10, 64)
			res.AllocsPerOp, _ = strconv.ParseInt(mem[2], 10, 64)
		}
	}
	if len(r.Results) == 0 {
		return nil, out, fmt.Errorf("no benchmark lines matched %q", bench)
	}
	for i := range r.Results {
		res := &r.Results[i]
		var sum float64
		for _, s := range res.SamplesNs {
			sum += s
		}
		res.NsPerOp = sum / float64(len(res.SamplesNs))
		if len(res.SamplesNs) == 1 {
			res.SamplesNs = nil // a single sample carries no extra information
		}
	}
	return r, out, nil
}

// loadLatest returns the most recent existing baseline in dir, or nil.
func loadLatest(dir string) (*Report, string) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		return nil, ""
	}
	sort.Strings(paths) // BENCH_YYYY-MM-DD.json sorts chronologically
	path := paths[len(paths)-1]
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, ""
	}
	var r Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, ""
	}
	return &r, path
}

func printComparison(cur, prev *Report, prevPath string) {
	if prev == nil {
		fmt.Println("no previous baseline found — reporting absolute numbers")
	} else {
		fmt.Printf("comparing against %s\n", prevPath)
	}
	byName := map[string]Result{}
	if prev != nil {
		for _, r := range prev.Results {
			byName[r.Name] = r
		}
	}
	w := 0
	for _, r := range cur.Results {
		if len(r.Name) > w {
			w = len(r.Name)
		}
	}
	fmt.Printf("%-*s  %14s  %12s  %10s  %s\n", w, "benchmark", "ns/op", "B/op", "allocs/op", "vs previous")
	for _, r := range cur.Results {
		delta := "(new)"
		if p, ok := byName[r.Name]; ok && r.NsPerOp > 0 {
			ratio := p.NsPerOp / r.NsPerOp
			switch {
			case ratio >= 1.05:
				delta = fmt.Sprintf("%.2f× faster", ratio)
			case ratio <= 0.95:
				delta = fmt.Sprintf("%.2f× SLOWER", 1/ratio)
			default:
				delta = "~unchanged"
			}
			delta += " " + significance(r.SamplesNs, p.SamplesNs)
		}
		fmt.Printf("%-*s  %14.0f  %12d  %10d  %s\n", w, r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, delta)
	}
}

// printPaired compares scalar/vector sibling benchmarks WITHIN the current
// run — the BenchmarkVectorBatch suite emits ".../scalar" and ".../vector"
// variants of the same workload, so the speedup and its significance are
// testable from a single baseline, no prior file required.
func printPaired(cur *Report) {
	byName := map[string]Result{}
	for _, r := range cur.Results {
		byName[r.Name] = r
	}
	type pair struct{ base string }
	var pairs []pair
	w := 0
	for _, r := range cur.Results {
		base, ok := strings.CutSuffix(r.Name, "/scalar")
		if !ok {
			continue
		}
		if _, ok := byName[base+"/vector"]; !ok {
			continue
		}
		pairs = append(pairs, pair{base})
		if len(base) > w {
			w = len(base)
		}
	}
	if len(pairs) == 0 {
		return
	}
	fmt.Println("\nscalar vs vector (paired within this run):")
	fmt.Printf("%-*s  %14s  %14s  %s\n", w, "benchmark", "scalar ns/op", "vector ns/op", "speedup")
	for _, p := range pairs {
		s, v := byName[p.base+"/scalar"], byName[p.base+"/vector"]
		if v.NsPerOp <= 0 {
			continue
		}
		fmt.Printf("%-*s  %14.0f  %14.0f  %.2f× %s\n",
			w, p.base, s.NsPerOp, v.NsPerOp, s.NsPerOp/v.NsPerOp,
			significance(v.SamplesNs, s.SamplesNs))
	}
}

// significance renders the Welch's t-test verdict on two sample sets. A
// ratio without a significance flag is just noise wearing a number: the
// baseline must have been recorded with -count ≥ 2 for the test to run.
func significance(cur, prev []float64) string {
	if len(cur) < 2 || len(prev) < 2 {
		return "(no samples for t-test)"
	}
	r, err := stats.WelchTTest(cur, prev)
	if err != nil {
		return "(t-test: " + err.Error() + ")"
	}
	if r.Significant(0.05) {
		return fmt.Sprintf("(p=%.3g, significant)", r.P)
	}
	return fmt.Sprintf("(p=%.3g, NOT significant)", r.P)
}
