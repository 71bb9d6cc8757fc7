// Command experiments regenerates every table of the reproduction (E1..E12
// in DESIGN.md) and emits them as markdown — the source of EXPERIMENTS.md.
//
// With -protocol it instead runs a batch scenario through the engine: one
// registered protocol over a stream of generated graphs under a named
// scheduler, with aggregated bit accounting — every registered protocol ×
// scheduler × family combination, from the command line.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-o file.md] [-only E4]
//	experiments -protocol forest -family forest -n 64 -count 10000
//	experiments -protocol oracle-conn -family gnp -p 0.05 -n 32 -count 2000 -sched chunked
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"refereenet/internal/engine"
	"refereenet/internal/experiments"
	"refereenet/internal/gen"

	// Registered for their engine registry entries.
	_ "refereenet/internal/collide"
	_ "refereenet/internal/core"
	_ "refereenet/internal/sketch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	quick := flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
	seed := flag.Int64("seed", experiments.DefaultConfig().Seed, "root random seed")
	out := flag.String("o", "", "write markdown to this file (default stdout)")
	only := flag.String("only", "", "run a single experiment, e.g. E4")
	protocol := flag.String("protocol", "", "batch scenario: run this registered protocol instead of the E1..E12 tables")
	sched := flag.String("sched", "chunked", fmt.Sprintf("batch scenario scheduler: %v", engine.SchedulerNames()))
	family := flag.String("family", "gnp", fmt.Sprintf("batch scenario graph family: %v", gen.FamilyNames()))
	n := flag.Int("n", 64, "batch scenario graph size")
	k := flag.Int("k", 3, "batch scenario structural parameter")
	p := flag.Float64("p", 0.1, "batch scenario edge probability")
	count := flag.Int("count", 1000, "batch scenario stream length")
	flag.Parse()

	if *protocol != "" {
		if err := runScenario(os.Stdout, *protocol, *sched, *family, *n, *k, *count, *p, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	start := time.Now()
	reports := experiments.All(cfg)

	var b strings.Builder
	fmt.Fprintf(&b, "<!-- generated by cmd/experiments: seed=%d quick=%v -->\n\n", *seed, *quick)
	matched := 0
	for _, r := range reports {
		if *only != "" && !strings.EqualFold(r.ID, *only) {
			continue
		}
		matched++
		b.WriteString(r.Markdown())
	}
	if matched == 0 {
		log.Fatalf("no experiment matches -only=%q", *only)
	}
	fmt.Fprintf(&b, "*Generated in %s.*\n", time.Since(start).Round(time.Millisecond))

	if *out == "" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d experiments, %s)", *out, matched, time.Since(start).Round(time.Millisecond))
}

// runScenario streams `count` graphs of the family through the named
// protocol via engine.RunBatch and prints the aggregated accounting to w.
// The stream is gen.NewFamilySource — the same (seed, family, n, k, p,
// count) stream a "family" sweep spec names — so malformed parameters are
// errors here, before any worker starts. Graph generation happens on the
// feeding goroutine; graphs fan out over the batch worker pool, and each
// graph's local phase runs under the -sched scheduler (serial keeps the
// whole run on one goroutine — the allocation-free path).
func runScenario(w io.Writer, protocol, schedName, family string, n, k, count int, p float64, seed int64) error {
	pr, ok := engine.New(protocol, engine.Config{N: n, K: k, Seed: seed})
	if !ok {
		return fmt.Errorf("unknown protocol %q (known: %v)", protocol, engine.Names())
	}
	workers := 0 // one per CPU
	var sched engine.Scheduler
	if schedName == "serial" || schedName == "sequential" {
		workers = 1
	} else if s, ok := engine.SchedulerByName(schedName); ok {
		sched = s
	} else {
		return fmt.Errorf("unknown scheduler %q (known: %v)", schedName, engine.SchedulerNames())
	}
	src, err := gen.NewFamilySource(seed, family, n, k, p, count)
	if err != nil {
		return err
	}
	start := time.Now()
	stats := engine.RunBatch(pr, src, engine.BatchOptions{Workers: workers, Sched: sched, Decide: true, MaxN: n})
	elapsed := time.Since(start)

	fmt.Fprintf(w, "scenario: protocol=%s sched=%s family=%s n=%d k=%d count=%d seed=%d\n",
		protocol, schedName, family, n, k, count, seed)
	fmt.Fprintf(w, "graphs: %d in %s (%.0f graphs/s)\n",
		stats.Graphs, elapsed.Round(time.Millisecond), float64(stats.Graphs)/elapsed.Seconds())
	fmt.Fprintf(w, "bits: max message %d, mean transcript %.1f, total %d\n",
		stats.MaxBits, stats.MeanBitsPerGraph(), stats.TotalBits)
	if stats.Accepted+stats.Rejected+stats.Errors > 0 {
		fmt.Fprintf(w, "referee: accepted %d, rejected %d, errors %d\n",
			stats.Accepted, stats.Rejected, stats.Errors)
	}
	return nil
}
