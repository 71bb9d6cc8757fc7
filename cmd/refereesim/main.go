// Command refereesim runs a one-round protocol on a generated graph and
// prints the transcript: per-message bits, frugality ratio, and whether the
// referee's output is correct. Protocols are resolved through the engine's
// registry (every protocol internal/core, internal/sketch and
// internal/collide register) and schedulers through the engine's scheduler
// names, so any registered protocol × scheduler × family combination is a
// runnable scenario.
//
// Usage:
//
//	refereesim -gen ktree -n 64 -k 3 -protocol degeneracy -sched chunked
//	refereesim -gen gnp -n 32 -p 0.2 -protocol sketch-conn
//	refereesim -gen tree -n 100 -protocol forest -sched congest
//	refereesim -list
//
// The sweep subcommand is the batch layer at fleet scale: it plans a
// protocol × source sweep (Gray-code rank ranges of the labelled-graph
// space, or generated family corpora), executes it in-process on -workers
// concurrent slots, and merges the per-shard stats — with an optional
// resumable checkpoint manifest:
//
//	refereesim sweep -protocol hash16 -n 8 -workers 8
//	refereesim sweep -protocol oracle-conn -decide -n 6 -workers 2
//	refereesim sweep -protocol hash16 -n 8 -ranks 0:134217728 -manifest n8.manifest
//	refereesim sweep -gen gnp -n 64 -count 100000 -protocol sketch-conn
//	refereesim sweep -protocol hash16 -corpus adversarial.corpus
//
// The serve subcommand turns this binary into a long-lived worker daemon:
// the same Unit/Result line protocol over accepted TCP connections, behind a
// handshake that rejects coordinators built from a different registry lineup
// or wire version (docs/sweep-protocol.md specifies the wire format). A
// coordinator drives remote daemons with -connect: one worker slot per listed
// address (','- or ';'-separated), every slot pulling from one work queue and
// failing over to the other addresses when its daemon dies:
//
//	refereesim serve -listen :7171                 # on every worker machine
//	refereesim serve -listen :7171 -parallel 8     # one pool of 8 workers shared by every connection
//	refereesim sweep -protocol hash16 -n 8 -connect host1:7171,host2:7171
//	refereesim sweep -protocol hash16 -n 8 -connect rack1:7171,rack2:7171 -manifest n8.manifest
//	refereesim sweep -protocol oracle-conn -decide -n 9 -ranks 34359738368:34493956096 -connect host1:7171
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"refereenet/internal/congest"
	"refereenet/internal/core"
	"refereenet/internal/engine"
	"refereenet/internal/gen"
	"refereenet/internal/graph"

	// Registered for their engine registry entries (strawmen, sketch-conn).
	_ "refereenet/internal/collide"
	_ "refereenet/internal/sketch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("refereesim: ")
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		exitOn(runSweep(context.Background(), os.Args[2:], os.Stdout, os.Stderr))
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := runServe(ctx, os.Args[2:], os.Stdout, os.Stderr)
		stop()
		exitOn(err)
		return
	}
	genName := flag.String("gen", "ktree", fmt.Sprintf("graph family: %v", gen.FamilyNames()))
	n := flag.Int("n", 64, "number of vertices (family-dependent)")
	k := flag.Int("k", 3, "protocol / family structural parameter (degeneracy bound, k-tree order, ...)")
	p := flag.Float64("p", 0.2, "edge probability for gnp/bipartite")
	seed := flag.Int64("seed", 1, "random seed (graph generation and public randomness)")
	protocol := flag.String("protocol", "degeneracy", "registered protocol (see -list), or 'adaptive' for the multi-round extension")
	sched := flag.String("sched", "serial", fmt.Sprintf("scheduler: %v, 'congest' (realize on G ∪ {v₀}), or legacy aliases sequential|parallel", engine.SchedulerNames()))
	dot := flag.Bool("dot", false, "print the input graph in DOT format and exit")
	overCongest := flag.Bool("congest", false, "alias for -sched congest")
	list := flag.Bool("list", false, "list registered protocols and exit")
	flag.Parse()

	if *list {
		for _, name := range engine.Names() {
			r, _ := engine.Lookup(name)
			fmt.Printf("%-20s %s\n", name, r.Description)
		}
		return
	}

	g, err := gen.ByName(gen.NewRand(*seed), *genName, *n, *k, *p)
	if err != nil {
		log.Fatal(err)
	}
	if *dot {
		fmt.Print(g.DOT("G"))
		return
	}
	fmt.Printf("input: %s n=%d m=%d", *genName, g.N(), g.M())
	d, _ := g.Degeneracy()
	fmt.Printf(" degeneracy=%d\n", d)

	s, schedOK := engine.SchedulerByName(*sched)
	if *protocol == "adaptive" {
		if !schedOK {
			log.Fatalf("adaptive supports schedulers %v, not %q", engine.SchedulerNames(), *sched)
		}
		runAdaptive(g, s)
		return
	}
	pr, ok := engine.New(*protocol, engine.Config{N: g.N(), K: *k, Seed: *seed})
	if !ok {
		log.Fatalf("unknown protocol %q (try -list)", *protocol)
	}
	if *overCongest || *sched == "congest" {
		runOverCongest(g, *protocol, pr)
		return
	}
	if !schedOK {
		log.Fatalf("unknown scheduler %q (known: %v, congest)", *sched, engine.SchedulerNames())
	}
	switch impl := pr.(type) {
	case engine.Reconstructor:
		h, tr, err := engine.RunReconstructor(g, impl, s)
		report(tr)
		if err != nil {
			log.Fatalf("referee failed: %v", err)
		}
		fmt.Printf("reconstruction exact: %v\n", h.Equal(g))
	case engine.Decider:
		ans, tr, err := engine.RunDecider(g, impl, s)
		report(tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s answers %v\n", protoName(pr, *protocol), ans)
	default:
		// Local-only protocol (the strawmen): report the transcript.
		report(engine.LocalPhase(g, pr, s))
	}
}

// exitOn ends a subcommand: -h is a clean exit (the flag set has already
// printed its usage), any other error is fatal.
func exitOn(err error) {
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

func runAdaptive(g *graph.Graph, s engine.Scheduler) {
	res, err := engine.RunMultiRound(g, &core.AdaptiveReconstruction{}, 16, s)
	if err != nil {
		log.Fatal(err)
	}
	h := res.Output.(*graph.Graph)
	fmt.Printf("rounds=%d maxBits=%d broadcastBits=%d exact=%v\n",
		res.Rounds, res.MaxNodeBits(), res.BroadcastBits, h.Equal(g))
}

func runOverCongest(g *graph.Graph, name string, pr engine.Local) {
	r, ok := pr.(engine.Reconstructor)
	if !ok {
		log.Fatalf("-sched congest supports reconstruction protocols only, not %q", name)
	}
	h, eng, err := congest.RunReconstructor(g, r)
	if err != nil {
		log.Fatal(err)
	}
	refID := g.N() + 1
	maxLink := 0
	for v := 1; v <= g.N(); v++ {
		if t := eng.LinkTraffic(v, refID); t > maxLink {
			maxLink = t
		}
	}
	fmt.Printf("CONGEST realization: rounds=%d, max node→referee link=%d bits, max message=%d bits\n",
		eng.Rounds(), maxLink, eng.MaxRoundMessageBits())
	fmt.Printf("reconstruction exact: %v\n", h.Equal(g))
}

func report(tr *engine.Transcript) {
	fmt.Printf("messages: n=%d maxBits=%d totalBits=%d frugality=%.2f·log n\n",
		tr.N, tr.MaxBits(), tr.TotalBits(), tr.FrugalityRatio())
}

func protoName(p engine.Local, fallback string) string {
	if n, ok := p.(engine.Named); ok {
		return n.Name()
	}
	return fallback
}
