// Command bench is the repository benchmark: six seeded workloads that drive
// the referee stack through its public entry points — sweep.Run over
// in-process pipes and loopback TCP into sweep.Serve, and the HTTP job
// service — check every answer against independent truth, and print each
// metric as `name value unit` followed by one JSON result line.
//
//	bash bench/run.sh --workload gray-n9 --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it re-runs the same ops through span-recording
// decorators, replays the first ops' units bottom-up through every layer
// (ladder.go), writes the spans to out/trace-<workload>-<seed>.json and
// prints the per-layer ladder. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	// Protocol and source-kind registrations.
	_ "refereenet/internal/canon"
	_ "refereenet/internal/collide"
	_ "refereenet/internal/core"
	_ "refereenet/internal/gen"
)

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"gray-n9", "canon-n9", "scalar-mix", "units-n6-local", "units-n6-tcp", "service-mix"}

// setup_s is the median over child processes: at least minProbes, and more,
// up to maxProbes, while they have taken less than probeBudget — a
// millisecond set-up gets 21 samples, canon-n9's seconds-long one three.
const (
	minProbes   = 3
	maxProbes   = 21
	probeBudget = time.Second
)

func main() {
	runtime.GOMAXPROCS(slots)
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer ladder")
		dir      = flag.String("dir", "bench", "the benchmark's directory (testdata/ is read, out/ written)")
		record   = flag.String("record", "", "append this run's result as one JSON line to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -record files: -compare A.jsonl B.jsonl")
		maxRate  = flag.Bool("max-rate", false, "service-mix: bisect the highest open-loop rate that meets the latency limit")
		probe    = flag.Bool("setup-probe", false, "set the workload up, print ready, exit (measures setup_s)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare wants two files")
		}
		if err := compareRuns(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, sz: fullSizes(), log: os.Stderr}
	if !known(cfg.workload) {
		fatalf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if *probe {
		if err := setupOnly(cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *maxRate {
		if cfg.workload != "service-mix" {
			fatalf("-max-rate applies to service-mix")
		}
		if err := findMaxRate(os.Stdout, cfg); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if !cfg.trace {
		s, err := probeSetup(cfg)
		if err != nil {
			fatalf("setup probe: %v", err)
		}
		cfg.setupS = s
	}
	res, rep, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	rep.print(os.Stdout)
	if *record != "" {
		if err := appendRecord(*record, cfg, res); err != nil {
			fatalf("%v", err)
		}
	}
	if err := writeJSONLine(os.Stdout, res); err != nil {
		fatalf("%v", err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// run executes one workload and returns its result line and report.
func run(cfg runConfig) (result, *report, error) {
	rep := newReport()
	var (
		correct           bool
		attempted, failed int
		err               error
	)
	if cfg.workload == "service-mix" {
		correct, attempted, failed, err = runService(cfg, rep)
	} else {
		w := newSweepWorkloads(cfg.sz, cfg.dir)[cfg.workload]
		correct, attempted, failed, err = runSweep(w, cfg, rep)
	}
	if err != nil {
		return result{}, nil, err
	}
	res, err := rep.result(cfg.trace, correct, attempted, failed)
	return res, rep, err
}

// setupOnly is the child side of probeSetup: set the workload up exactly as
// a run does, report ready, tear down.
func setupOnly(cfg runConfig) error {
	var stop func()
	if cfg.workload == "service-mix" {
		s, err := startService(cfg.sz.svc)
		if err != nil {
			return err
		}
		stop = s.close
	} else {
		w := newSweepWorkloads(cfg.sz, cfg.dir)[cfg.workload]
		r := &rig{}
		if err := w.prepare(w, r); err != nil {
			return err
		}
		stop = r.close
	}
	fmt.Println("ready")
	if stop != nil {
		stop()
	}
	return nil
}

// probeSetup measures setup_s: the median, over child processes running
// this same binary, of the time from starting the process until it reports
// that the first op could begin.
func probeSetup(cfg runConfig) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	spent := 0.0
	for len(times) < minProbes || (len(times) < maxProbes && spent < probeBudget.Seconds()) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		cmd := exec.CommandContext(ctx, self, "-setup-probe", "-workload", cfg.workload, "-dir", cfg.dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			cancel()
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			cancel()
			return 0, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(start)
		io.Copy(io.Discard, out)
		werr := cmd.Wait()
		cancel()
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("child said %q: %v", line, errors.Join(rerr, werr))
		}
		if werr != nil {
			return 0, werr
		}
		times = append(times, d.Seconds())
		spent += d.Seconds()
	}
	return median(times), nil
}
