package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runRecord is one run's result as -record appends it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, cfg runConfig, res result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := writeJSONLine(f, runRecord{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Result: res}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict classifies one workload × metric comparison of a parent (A) and
// a change (B). Pairs are A's and B's runs in file order, so record them
// alternating, with the same seeds on both sides.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	q1, _, q3 := quartiles(a)
	gap := mb - ma
	if gap < 0 {
		gap = -gap
	}
	switch {
	case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(mb, ma) && gap > q3-q1:
		return "gain"
	case spread(a) > bound && !allBetter(b, a, better):
		return "unresolved"
	case better(ma, mb) && gap > bound*abs(ma):
		return "regression"
	}
	return "no regression"
}

func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareRuns prints, for every workload and end-to-end metric, both sides'
// medians and quartiles and the verdict: a gain needs at least ten pairs,
// a win in nine tenths of them and a median gap larger than the parent's
// interquartile range; a regression is a median worse by more than the
// metric's bound; a metric whose parent spread exceeds its bound is
// unresolved unless every run of B beats every run of A.
func compareRuns(w io.Writer, specPath, pathA, pathB string) error {
	buf, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	recA, err := readRecords(pathA)
	if err != nil {
		return err
	}
	recB, err := readRecords(pathB)
	if err != nil {
		return err
	}
	values := func(recs []runRecord, workload, metric string) []float64 {
		var out []float64
		for _, r := range recs {
			if r.Workload == workload && !r.Trace {
				if v, ok := r.Result.Metrics[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	workloads := map[string]bool{}
	for _, r := range append(append([]runRecord(nil), recA...), recB...) {
		workloads[r.Workload] = true
	}
	names := sortedKeys(workloads)
	sort.SliceStable(names, func(i, j int) bool { return workloadIndex(names[i]) < workloadIndex(names[j]) })
	fmt.Fprintf(w, "%-15s %-14s %5s %30s %30s  %s\n", "workload", "metric", "pairs", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			a, b := values(recA, wl, m.Name), values(recB, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			fmt.Fprintf(w, "%-15s %-14s %5d %12.4g [%7.4g, %7.4g] %12.4g [%7.4g, %7.4g]  %s\n",
				wl, m.Name, min(len(a), len(b)), a2, a1, a3, b2, b1, b3, verdict(a, b, m.Better == "lower", m.Bound))
		}
	}
	return nil
}

func workloadIndex(name string) int {
	for i, n := range workloadNames {
		if n == name {
			return i
		}
	}
	return len(workloadNames)
}
