package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"refereenet/internal/canon"
	"refereenet/internal/collide"
	"refereenet/internal/corpus"
	"refereenet/internal/engine"
	"refereenet/internal/sweep"
)

// runSweep is the `refereesim sweep` coordinator: it plans a rank-range,
// family or disk-corpus sweep, executes the units — in this process on
// -workers concurrent slots, or on remote `refereesim serve` daemons via
// -connect — merges their stats, and checkpoints progress to an optional
// resumable manifest.
func runSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	protocol := fs.String("protocol", "hash16", "registered protocol to sweep (see refereesim -list)")
	sched := fs.String("sched", "serial", fmt.Sprintf("per-graph scheduler: %v", engine.SchedulerNames()))
	n := fs.Int("n", 6, "graph size")
	k := fs.Int("k", 0, "protocol structural parameter (0 = registration default)")
	seed := fs.Int64("seed", 1, "public-randomness / corpus seed")
	decide := fs.Bool("decide", false, "run the referee's decision on every transcript and tally verdicts")
	workers := fs.Int("workers", runtime.NumCPU(), "concurrent in-process worker slots (ignored with -connect)")
	units := fs.Int("units", 0, "work units to split the sweep into (0 = 4 per worker)")
	ranks := fs.String("ranks", "", "sub-range lo:hi of the sweep space (default: all of it): Gray-code ranks for the labelled enumeration, class indices for -source canon; lets a fleet split the space across machines")
	source := fs.String("source", "gray", "enumeration source: gray sweeps every labelled graph, canon sweeps one representative per isomorphism class with orbit weights (identical merged totals, ~2.5e5x fewer evaluations at n=9)")
	connect := fs.String("connect", "", "drive remote `refereesim serve` daemons instead of executing in-process: addresses separated by ',' or ';' (e.g. host1:7171,host1:7172,host2:7171), one worker slot each; repeat an address for extra streams")
	corpusPath := fs.String("corpus", "", "sweep a word-packed edge-mask corpus file (written by graphgen -emit) instead of the labelled-graph enumeration")
	family := fs.String("gen", "", "sweep a generated family (gen.ByName name) instead of the labelled-graph enumeration")
	count := fs.Int("count", 10000, "graphs to generate in -gen mode")
	p := fs.Float64("p", 0.2, "edge probability for gnp-style families in -gen mode")
	manifest := fs.String("manifest", "", "checkpoint manifest path; rerunning with the same plan and manifest resumes instead of restarting")
	retries := fs.Int("retries", 1, "re-dispatches per failed unit before the sweep fails")
	unitTimeout := fs.Duration("unit-timeout", 0, "per-unit deadline: a round-trip exceeding it counts as a failure and the hung connection is abandoned (0 = no deadline)")
	hedge := fs.Duration("hedge", 0, "speculatively re-issue a unit still in flight after this delay; first result wins (0 = no hedging)")
	breakerK := fs.Int("breaker", 0, "consecutive failures that quarantine a daemon address (0 = default 5, negative disables the circuit breaker)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "how long a quarantined address stays skipped before a half-open probe (0 = default 500ms)")
	chaosSpec := fs.String("chaos", "", "inject deterministic faults into the transport: key=value pairs, e.g. seed=7,drop=0.05,hang=0.02,hangfor=3s,corrupt=0.01 (keys: seed, drop, lose, hang, delay, corrupt, dialfail, hangfor, delayfor)")
	dumpPlan := fs.Bool("dump-plan", false, "print the plan JSON and exit without executing")
	verbose := fs.Bool("v", false, "log coordinator progress to stderr")
	fs.Parse(args)

	shard := engine.ShardSpec{
		Protocol: *protocol,
		Sched:    *sched,
		Config:   engine.Config{N: *n, K: *k, Seed: *seed},
		Decide:   *decide,
	}
	if _, ok := engine.Lookup(*protocol); !ok {
		log.Fatalf("unknown protocol %q (try refereesim -list)", *protocol)
	}

	var addrs []string
	if *connect != "" {
		var perr error
		addrs, perr = sweep.ParseAddrs(*connect)
		if perr != nil {
			log.Fatal(perr)
		}
		// Remote slots size themselves from the address list, not this
		// machine's CPU count.
		*workers = len(addrs)
	}
	if *units <= 0 {
		*units = 4 * *workers
	}

	if *source == "canon" && (*corpusPath != "" || *family != "") {
		log.Fatal("-source canon sweeps the class table and cannot combine with -corpus or -gen")
	}

	var plan engine.Plan
	var err error
	switch {
	case *corpusPath != "":
		if *family != "" || *ranks != "" {
			log.Fatal("-corpus sweeps a disk corpus and cannot combine with -gen or -ranks")
		}
		hdr, herr := corpus.ReadHeader(*corpusPath)
		if herr != nil {
			log.Fatal(herr)
		}
		// The corpus header, not the -n flag, owns the graph size.
		shard.Config.N = hdr.N
		plan, err = sweep.SplitCorpus(shard, *corpusPath, hdr.N, hdr.Count, *units)
	case *family != "":
		if *ranks != "" {
			log.Fatal("-ranks slices the labelled-graph enumeration and cannot combine with -gen; use -count to size a generated sweep")
		}
		// Resolve a zero-count spec up front so parameter combinations the
		// family constructors reject fail here, not per-unit in the workers.
		probe := engine.SourceSpec{Kind: "family", Family: *family, N: *n, K: *k, P: *p, Seed: *seed}
		if _, perr := engine.ResolveSource(probe); perr != nil {
			log.Fatal(perr)
		}
		plan, err = sweep.SplitFamily(shard, *family, *n, *k, *p, *seed, *count, *units)
	case *source == "canon":
		if *n < 1 || *n > canon.MaxN {
			log.Fatalf("canon sweeps need 1 ≤ n ≤ %d (got %d)", canon.MaxN, *n)
		}
		// Building the class table here (seconds at n = 9, cached) both
		// validates -ranks against the true class count and means -dump-plan
		// shows the exact index bounds the workers will execute.
		total, terr := canon.ClassCount(*n)
		if terr != nil {
			log.Fatal(terr)
		}
		lo, hi, rerr := parseIndexRange(*ranks, total)
		if rerr != nil {
			log.Fatalf("-ranks: %v", rerr)
		}
		plan, err = sweep.SplitClasses(shard, *n, lo, hi, total, *units)
	case *source != "gray" && *source != "":
		log.Fatalf("unknown -source %q (want gray or canon)", *source)
	default:
		if *n < 1 || *n > collide.MaxEnumerationN {
			log.Fatalf("enumeration sweeps need 1 ≤ n ≤ %d (got %d); use -gen for generated families", collide.MaxEnumerationN, *n)
		}
		lo, hi, rerr := collide.ParseRankRange(*ranks, *n)
		if rerr != nil {
			log.Fatalf("-ranks: %v", rerr)
		}
		plan, err = sweep.SplitGrayRanks(shard, *n, lo, hi, *units)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *dumpPlan {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			log.Fatal(err)
		}
		return
	}

	opts := sweep.Options{
		Workers:          *workers,
		Dial:             addrs,
		Retries:          *retries,
		Manifest:         *manifest,
		UnitTimeout:      *unitTimeout,
		Hedge:            *hedge,
		Seed:             *seed,
		BreakerThreshold: *breakerK,
		BreakerCooldown:  *breakerCooldown,
	}
	if *chaosSpec != "" {
		chaos, cerr := sweep.ParseChaos(*chaosSpec)
		if cerr != nil {
			log.Fatal(cerr)
		}
		opts.Chaos = chaos
	}
	if *verbose {
		opts.Log = os.Stderr
	}

	start := time.Now()
	rep, err := sweep.Run(plan, opts)
	elapsed := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	st := rep.Stats
	fmt.Printf("sweep: protocol=%s sched=%s units=%d workers=%d elapsed=%s\n",
		*protocol, *sched, len(plan.Shards), *workers, elapsed.Round(time.Millisecond))
	fmt.Printf("graphs=%d total_bits=%d max_bits=%d max_n=%d accepted=%d rejected=%d errors=%d\n",
		st.Graphs, st.TotalBits, st.MaxBits, st.MaxN, st.Accepted, st.Rejected, st.Errors)
	fmt.Printf("mean bits/graph=%.2f\n", st.MeanBitsPerGraph())
	fmt.Printf("robustness: restored=%d retries=%d requeues=%d hedges=%d hedge_wins=%d deadline_kills=%d breaker_trips=%d duplicates=%d\n",
		rep.Restored, rep.Retries, rep.Requeues, rep.Hedges, rep.HedgeWins, rep.DeadlineKills, rep.BreakerTrips, rep.Duplicates)
}

// parseIndexRange parses a lo:hi sub-range of [0, total) — the class-index
// analogue of collide.ParseRankRange. Empty means the whole range.
func parseIndexRange(s string, total uint64) (lo, hi uint64, err error) {
	if s == "" {
		return 0, total, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("index range wants lo:hi, got %q", s)
	}
	if lo, err = strconv.ParseUint(parts[0], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("index range lo: %v", err)
	}
	if hi, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("index range hi: %v", err)
	}
	if lo > hi || hi > total {
		return 0, 0, fmt.Errorf("index range [%d,%d) out of bounds (space %d)", lo, hi, total)
	}
	return lo, hi, nil
}
