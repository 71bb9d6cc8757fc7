package sweep

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ServeOptions configures a worker daemon.
type ServeOptions struct {
	// Log receives one line per accepted, served and rejected connection,
	// plus the drain summary; nil discards. It need not be goroutine-safe.
	Log io.Writer
	// HandshakeTimeout bounds how long an accepted connection may take to
	// complete the handshake before it is dropped (default 10s) — an
	// accidental connection from a port scanner must not pin a goroutine.
	HandshakeTimeout time.Duration
	// Context, when non-nil, arms graceful drain: when it is cancelled the
	// daemon stops accepting, lets every in-flight unit finish and flush
	// its result, closes the connections (coordinators see EOF and retry
	// the rest of their plan elsewhere), logs a drain summary, and Serve
	// returns nil. cmd/refereesim wires SIGTERM/SIGINT here so a fleet
	// daemon can be restarted without eating the retry budget of every
	// coordinator mid-unit.
	Context context.Context
	// Executor is the pool every connection's units execute over. The
	// caller owns it: Serve never creates or closes a pool, so one process
	// can serve raw TCP units and HTTP job submissions (internal/service)
	// over a single bounded pool, and closes it once both have drained. Nil
	// executes each connection's units on that connection's goroutine.
	Executor *Executor
}

// testHookPostHandshake, when non-nil, runs on a connection's goroutine
// between a successful handshake and the deadline reset that follows — the
// window the drain-race regression test widens deterministically.
var testHookPostHandshake func()

// Serve runs the `refereesim serve` worker daemon: it accepts coordinator
// connections on l until the listener closes, and serves each one on its own
// goroutine — handshake first (a coordinator built from different registries
// or a different wire version is turned away with a reason), then the
// Unit/Result line protocol until the coordinator hangs up. One daemon
// therefore multiplexes any number of concurrent coordinator slots; with
// ServeOptions.Executor their units share, and split across, the caller's
// pool.
//
// Serve returns nil when l is closed (the clean shutdown path) and the
// accept error otherwise. Without ServeOptions.Context, in-flight
// connections are not interrupted by shutdown: their goroutines finish
// serving and exit on their own EOF, and a unit that reaches a pool the
// caller has already closed comes back as an error Result the coordinator
// retries elsewhere. With a Context, cancellation triggers the graceful drain
// documented on ServeOptions, and Serve returns only after the drain
// completes — the point from which the caller may close the pool.
func Serve(l net.Listener, opts ServeOptions) error {
	var mu sync.Mutex
	logf := func(format string, args ...interface{}) {
		if opts.Log != nil {
			mu.Lock()
			fmt.Fprintf(opts.Log, format+"\n", args...)
			mu.Unlock()
		}
	}
	timeout := opts.HandshakeTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}

	var (
		draining     atomic.Bool
		inflight     atomic.Int64 // units executing right now
		drainedUnits atomic.Int64 // units whose execution finished after drain started
		conns        sync.WaitGroup
		liveMu       sync.Mutex
		live         = map[net.Conn]bool{}
	)

	// The in-flight accounting wraps every execution so the drain summary
	// can say how many units were finished rather than abandoned.
	exec := func(u Unit) Result {
		inflight.Add(1)
		res := opts.Executor.Execute(u)
		inflight.Add(-1)
		if draining.Load() {
			drainedUnits.Add(1)
		}
		return res
	}

	if ctx := opts.Context; ctx != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-stopWatch:
				return
			case <-ctx.Done():
			}
			draining.Store(true)
			logf("serve: drain: stopped accepting, finishing %d in-flight units", inflight.Load())
			l.Close()
			// Unwedge every connection blocked reading its next unit; a
			// connection mid-execution finishes the unit, flushes the
			// result, and hits the expired deadline on its next read.
			liveMu.Lock()
			for nc := range live {
				nc.SetReadDeadline(time.Now())
			}
			liveMu.Unlock()
		}()
	}

	for {
		nc, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				if draining.Load() {
					conns.Wait()
					logf("serve: drained: %d in-flight units completed", drainedUnits.Load())
				}
				return nil
			}
			return fmt.Errorf("sweep: accept: %w", err)
		}
		conns.Add(1)
		liveMu.Lock()
		live[nc] = true
		if draining.Load() {
			// Raced the drain sweep: poke the deadline ourselves.
			nc.SetReadDeadline(time.Now())
		}
		liveMu.Unlock()
		go func() {
			defer func() {
				liveMu.Lock()
				delete(live, nc)
				liveMu.Unlock()
				nc.Close()
				conns.Done()
			}()
			addr := nc.RemoteAddr()
			conn := newLineConn(nc, nc)
			nc.SetDeadline(time.Now().Add(timeout))
			if err := serverHandshake(conn); err != nil {
				logf("serve: %s rejected: %v", addr, err)
				return
			}
			if h := testHookPostHandshake; h != nil {
				h()
			}
			// Clearing the handshake deadline races the drain sweep: if the
			// drain's SetReadDeadline(time.Now()) poke landed while the
			// handshake was completing, an unconditional SetDeadline(zero)
			// here would erase it and this connection's first unit read would
			// block forever — conns.Wait() then never returns and the drain
			// hangs. Re-check draining under liveMu (the lock the drain
			// sweep pokes under, mirroring the accept-path check above): on
			// the drain side of the race, keep the read side expired so
			// serveUnits fails its first read and the goroutine exits.
			liveMu.Lock()
			if draining.Load() {
				nc.SetWriteDeadline(time.Time{})
				nc.SetReadDeadline(time.Now())
			} else {
				nc.SetDeadline(time.Time{})
			}
			liveMu.Unlock()
			logf("serve: %s connected", addr)
			if err := serveUnits(conn.in, nc, exec); err != nil {
				if draining.Load() && errors.Is(err, os.ErrDeadlineExceeded) {
					logf("serve: %s drained", addr)
				} else {
					logf("serve: %s: %v", addr, err)
				}
				return
			}
			logf("serve: %s done", addr)
		}()
	}
}

// serveUnits is the worker half of the line protocol on one connection: it
// reads one Unit per line, executes it, and writes one Result line per unit,
// in a single write so the coordinator sees completions immediately. Both
// directions go through one wireCodec: a canonical unit line decodes without
// reflection, any other valid JSON through json.Unmarshal, and the result
// line is json.Marshal's bytes built in the codec's reused buffer. A spec
// that fails to resolve or execute produces a Result with Err set — the
// connection stays alive for the next unit. It reuses the handshake's
// scanner, so a unit line the coordinator pipelined right behind its hello
// is not lost in the scanner's buffer, and returns when the coordinator
// hangs up or on an unrecoverable stream error.
func serveUnits(in *bufio.Scanner, w io.Writer, exec func(Unit) Result) error {
	var codec wireCodec
	for in.Scan() {
		line := in.Bytes()
		if len(line) == 0 {
			continue
		}
		u, err := codec.decodeUnit(line)
		if err != nil {
			return fmt.Errorf("sweep: malformed unit line: %w", err)
		}
		out, err := codec.result(exec(u))
		if err != nil {
			return fmt.Errorf("sweep: encode result: %w", err)
		}
		if _, err := w.Write(out); err != nil {
			return fmt.Errorf("sweep: write result: %w", err)
		}
	}
	return in.Err()
}
