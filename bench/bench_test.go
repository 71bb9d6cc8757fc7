package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// tinySizes shrinks every workload so the smoke test runs all six in a few
// seconds, with no reference cache.
func tinySizes() sizes {
	return sizes{
		grayN9Piece:  1 << 10,
		grayN9Units:  4,
		canonN:       6,
		scalarN:      6,
		scalarPiece:  1 << 6,
		scalarPieces: 4,
		famN:         16,
		famCount:     8,
		unitsN:       5,
		unitsMin:     4,
		unitsMax:     12,
		svc: serviceSizes{
			grayN: 5, winLogMin: 4, winLogMax: 6, canonN: 5,
			rate: 400, sloLimit: time.Second, hotPlans: 4, hotShare: 0.8,
		},
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, trace := range []bool{false, true} {
		for _, name := range workloadNames {
			cfg := runConfig{
				workload: name, seed: 3, seconds: 0.1, trace: trace, dir: t.TempDir(),
				sz: tinySizes(), maxOps: 3, log: io.Discard,
				setupS: 0.001, // the child-process probe needs the built binary
			}
			res, rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: result %+v", name, trace, res)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result line, want %d", name, trace, len(res.Metrics), len(want))
			}
			if trace && len(rep.notes) == 0 {
				t.Errorf("%s: traced run printed no ladder", name)
			}
		}
	}
}

// TestSeedDeterminism: a seed fixes every op's plan; another seed changes
// them.
func TestSeedDeterminism(t *testing.T) {
	sz := tinySizes()
	fingerprints := func(seed int64) map[string][]string {
		out := map[string][]string{}
		ws := newSweepWorkloads(sz, t.TempDir())
		for name, w := range ws {
			r := &rig{}
			if err := w.prepare(w, r); err != nil {
				t.Fatal(err)
			}
			if r.close != nil {
				r.close()
			}
			for i := 0; i < 8; i++ {
				fp, err := w.op(w, seed, i).Plan.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				out[name] = append(out[name], fp)
			}
		}
		plans, reqs := serviceSchedule(sz.svc, seed, sz.svc.rate, 200*time.Millisecond)
		for _, r := range reqs {
			out["service-mix"] = append(out["service-mix"], plans[r.plan].fp)
		}
		return out
	}
	a, b, c := fingerprints(1), fingerprints(1), fingerprints(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different plans")
	}
	for name := range a {
		if reflect.DeepEqual(a[name], c[name]) {
			t.Errorf("%s: seeds 1 and 2 gave the same plans", name)
		}
	}
}

// TestBenchmarkJSONMatchesCode: BENCHMARK.json names the workloads and the
// metrics the result line carries, in the same order as the code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		json, got []string
	}{
		{"workloads", names(spec.Workloads), workloadNames},
		{"end_to_end", names(spec.EndToEnd), endToEndMetrics},
		{"per_layer", names(spec.PerLayer), perLayerMetrics},
	} {
		if !reflect.DeepEqual(c.json, c.got) {
			t.Errorf("BENCHMARK.json %s = %v, code has %v", c.what, c.json, c.got)
		}
	}
}
