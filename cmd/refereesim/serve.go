package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"refereenet/internal/engine"
	"refereenet/internal/service"
	"refereenet/internal/sweep"
)

// runServe is the `refereesim serve` worker daemon: a long-lived process
// that accepts sweep coordinator connections and serves the JSON-lines
// Unit/Result protocol on each, behind the registry-fingerprint handshake.
// Point `refereesim sweep -connect host:port` (from any machine) at it.
//
// With -http it additionally serves the sweep-as-a-service job API
// (internal/service): POST /jobs takes the same plan JSON `sweep -dump-plan`
// emits, results are cached by plan fingerprint, and GET /metrics exposes
// the counters. This function owns the process's one execution pool of
// -parallel workers: both surfaces execute over it, so total execution
// concurrency stays bounded however work arrives, and it is closed only
// after both have drained.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":7171", "TCP address to accept sweep coordinators on (host:port; port 0 picks a free one)")
	httpAddr := fs.String("http", "", "also serve the HTTP job API on this address (host:port; port 0 picks a free one); empty disables it")
	parallel := fs.Int("parallel", runtime.NumCPU(), "execution pool size: units from ALL accepted connections and HTTP jobs share k pool workers (splittable units run k-way parallel), so one daemon stands in for k single-threaded ones and never executes more than k shards at once")
	jobs := fs.Int("jobs", 2, "with -http: concurrent job executions (queue beyond that, 429 beyond the queue)")
	queueDepth := fs.Int("queue", 16, "with -http: admission queue depth before submissions are rejected 429")
	cacheSize := fs.Int("cache", 256, "with -http: result cache entries (keyed by plan fingerprint; negative disables)")
	verbose := fs.Bool("v", false, "log every connection to stderr")
	fs.Parse(args)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	exec := sweep.NewExecutor(*parallel)
	defer exec.Close()
	// The resolved address on stdout, flushed before serving, so scripts
	// that started us with port 0 can scrape where to connect.
	fmt.Printf("listening %s protocol=v%d registry=%.12s parallel=%d\n",
		l.Addr(), sweep.ProtocolVersion, engine.RegistryFingerprint(), exec.Workers())
	os.Stdout.Sync()

	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}

	serveOpts := sweep.ServeOptions{Log: logw, Executor: exec}
	var (
		svc *service.Server
		hs  *http.Server
	)
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		svc = service.New(service.Config{
			Executor:   exec,
			MaxJobs:    *jobs,
			QueueDepth: *queueDepth,
			CacheSize:  *cacheSize,
			Log:        logw,
		})
		hs = &http.Server{Handler: svc.Handler()}
		go hs.Serve(hl)
		fmt.Printf("http listening %s jobs=/jobs metrics=/metrics\n", hl.Addr())
		os.Stdout.Sync()
	}

	// SIGTERM/SIGINT triggers a graceful drain: stop accepting, finish and
	// flush every in-flight unit, then exit 0 — so restarting a fleet daemon
	// costs the coordinators a retry, never a half-computed unit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveOpts.Context = ctx
	if err := sweep.Serve(l, serveOpts); err != nil {
		log.Fatal(err)
	}
	if svc != nil {
		// TCP surface drained; now the HTTP one: stop accepting and let
		// running jobs finish (Close waits). The deferred exec.Close runs
		// after both.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		hs.Shutdown(shutdownCtx)
		cancel()
		svc.Close()
	}
	if ctx.Err() != nil {
		fmt.Println("serve: drained cleanly after signal")
	}
}
