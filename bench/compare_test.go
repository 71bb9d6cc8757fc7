package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		bound  float64
		verdct string
	}{
		{"clear gain", parent, scale(parent, 0.8), 0.1, "gain"},
		{"too few pairs for a gain", parent[:5], scale(parent[:5], 0.8), 0.1, "no regression"},
		{"within bound", parent, scale(parent, 1.05), 0.1, "no regression"},
		{"regression", parent, scale(parent, 1.2), 0.1, "regression"},
		{"parent spread beyond bound", []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}, scale(parent, 1.2), 0.1, "unresolved"},
	} {
		if got := verdict(c.a, c.b, true, c.bound); got != c.verdct {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.verdct)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	files := map[string]float64{"a.jsonl": 10, "b.jsonl": 20}
	for name, v := range files {
		for seed := int64(1); seed <= 3; seed++ {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"op_p50_ms": {Value: v + float64(seed)/10, Unit: "ms"}}}
			if err := appendRecord(filepath.Join(dir, name), runConfig{workload: "gray-n9", seed: seed}, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compareRuns(&out, spec, filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gray-n9") || !strings.Contains(out.String(), "regression") {
		t.Errorf("compare output:\n%s", out.String())
	}
}
