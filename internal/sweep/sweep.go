// Package sweep is the multi-process, multi-machine shard coordinator on top
// of the batch pipeline's three stages:
//
//   - plan: an engine.Plan (built here by SplitGrayRanks/SplitFamily/
//     SplitCorpus or by hand) names every shard declaratively — protocol,
//     scheduler and source spec — and serializes to JSON;
//   - execute: each Unit (plan index + ShardSpec) is resolved against the
//     protocol and source-kind registries via engine.ExecuteShard — in this
//     process by direct call, or by a `refereesim serve` daemon that
//     receives it as one JSON line and answers with one Result line;
//   - merge: the coordinator folds Results into run totals with
//     engine.BatchStats.Merge, which is commutative and associative, so the
//     nondeterministic completion order of a worker fleet cannot change the
//     answer — a sharded sweep is byte-identical to the monolithic run.
//
// Workers are reached through a Transport (transport.go): InProcess, which
// executes units by direct call (the default), or TCP connections to
// long-lived `refereesim serve` daemons (Options.Dial), guarded by a
// handshake that rejects a worker binary with a different wire version or
// registry lineup. Each process has at most one execution pool, an Executor
// (executor.go) that the caller creates and shares between its surfaces —
// the daemon's connections, the job service, InProcess sweeps. The pool
// splits range-shaped sources k ways via engine.SplitShard, which is
// invisible to the coordinator, since merged stats are byte-identical to
// single-threaded execution.
//
// The coordinator is hardened against every failure mode a multi-hour fleet
// run hits, not just dropped connections:
//
//   - a dropped connection is the death of the in-flight unit's worker: the
//     unit is retried (on a redialed connection, failing over across daemon
//     addresses with jittered exponential backoff);
//   - a *hung* worker is reclaimed by Options.UnitTimeout: a round-trip
//     exceeding the per-unit deadline counts as a failure, the slot abandons
//     the connection and redials, and the unit re-enters the retry path;
//   - a *slow* worker is raced by Options.Hedge: a unit in flight past the
//     hedge delay is speculatively re-issued to another slot, first result
//     wins, the loser is discarded by unit ID (safe because workers are
//     idempotent per unit — see docs/sweep-protocol.md — and the merge layer
//     counts one result per unit);
//   - a *flapping* daemon address is quarantined by a per-endpoint circuit
//     breaker (breaker.go) after consecutive failures and probed back with
//     half-open trials;
//   - completed units are checkpointed to a resumable manifest file — a
//     JSON-lines log holding a fingerprinted header and one Result per
//     finished unit (see manifest.go) — so a killed coordinator resumes where
//     it stopped instead of restarting at rank 0.
//
// Run is the one coordinator entry point, whether the daemons share a machine
// or span several: every worker slot pulls from one work queue, so a dead
// daemon address cannot strand units while another is reachable. It returns
// a SweepReport carrying the merged stats plus the robustness counters
// (retries, requeues, hedges, deadline kills, breaker trips), and
// ChaosTransport (chaos.go) injects all of the above failure modes on a
// deterministic seed for tests and soaks.
//
// The wire protocol is specified in docs/sweep-protocol.md; third-party
// workers can be written against it.
package sweep

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"refereenet/internal/engine"
)

// Options configures a coordinator run.
type Options struct {
	// Workers is the number of concurrent worker slots; ≤ 0 means 1 (or,
	// with Dial, one per address). Without Dial or Transport each slot
	// executes its units in this process by direct call (InProcess{}), so
	// Workers is the sweep's concurrency.
	Workers int
	// Dial lists `refereesim serve` daemon addresses ("host:port"). Each
	// worker slot holds one TCP connection, slots spread round-robin over
	// the addresses, and a slot whose daemon dies fails over to the others
	// with backoff. List an address twice to hold two concurrent streams
	// into one daemon.
	Dial []string
	// Transport, when non-nil, overrides Dial: every slot dials through it.
	// It is the extension point for custom couplings — InProcess over the
	// caller's Executor, tests injecting failing transports. A Result whose
	// ID differs from its Unit's is a transport failure: the unit is
	// charged, and the slot closes the connection and redials.
	Transport Transport
	// Retries is how many times a failed unit is re-dispatched before the
	// sweep is declared failed. Worker death counts as a failure of the
	// unit that was in flight.
	Retries int
	// Manifest is the checkpoint file path; empty disables checkpointing.
	Manifest string
	// Log receives coordinator progress lines; nil discards them. It need
	// not be goroutine-safe: Run serializes all writes through one mutex.
	Log io.Writer

	// UnitTimeout is the per-unit deadline: a round-trip exceeding it is
	// charged as a unit failure, the slot abandons the (possibly hung)
	// connection and redials, and the unit re-enters the retry/requeue
	// path. 0 disables the deadline — a hung worker then stalls its slot
	// until the connection drops on its own.
	UnitTimeout time.Duration
	// Hedge speculatively re-issues a unit still in flight after this
	// delay to another slot. The first result wins; the loser is discarded
	// by unit ID, which is safe because workers are idempotent per unit
	// and the merge layer counts exactly one result per unit. At most one
	// hedge is launched per unit. 0 disables hedging.
	Hedge time.Duration
	// Seed drives the deterministic jitter on TCP redial backoff (and any
	// other randomized robustness machinery), so fleet-mates don't redial
	// in lockstep after a daemon restart yet runs stay reproducible.
	Seed int64
	// BreakerThreshold is how many consecutive failures (dials or
	// round-trips) quarantine a daemon address. 0 means the default (5);
	// negative disables the circuit breaker.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped endpoint stays quarantined
	// before a half-open probe is admitted (default 500ms).
	BreakerCooldown time.Duration
	// Chaos, when non-nil, wraps the resolved transport in a
	// ChaosTransport injecting the configured fault schedule — the
	// deterministic soak harness for everything above.
	Chaos *ChaosOptions

	// Progress, when non-nil, is called each time a unit of the plan
	// reaches its terminal state — merged into the totals or permanently
	// failed — with the running count of terminal units and the plan's
	// total unit count. Units restored from the manifest are reported once,
	// up front, as a single call carrying the restored count. The callback
	// must be goroutine-safe and cheap: it runs inside the coordinator's
	// accounting loop, and whatever reads the progress it records runs on
	// other goroutines. The job service (internal/service) hangs its
	// per-job progress API on this hook.
	Progress func(done, total int)
}

// breaker builds the endpoint breaker every slot shares from the options, or
// nil when disabled.
func (o Options) breaker() *Breaker {
	if o.BreakerThreshold < 0 {
		return nil
	}
	threshold := o.BreakerThreshold
	if threshold == 0 {
		threshold = 5
	}
	return NewBreaker(threshold, o.BreakerCooldown)
}

// transport resolves the Options precedence into the Transport worker slots
// dial through, plus the slot count and the endpoint breaker (TCP only).
func (o Options) transport() (Transport, int, *Breaker) {
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	switch {
	case o.Transport != nil:
		return o.Transport, workers, nil
	case len(o.Dial) > 0:
		if o.Workers < 1 {
			workers = len(o.Dial)
		}
		br := o.breaker()
		return &TCP{Addrs: o.Dial, Log: o.Log, Seed: o.Seed, Breaker: br}, workers, br
	default:
		return InProcess{}, workers, nil
	}
}

// SweepReport is what Run returns: the merged stats plus the
// robustness counters that say how hard the fleet had to work for them.
type SweepReport struct {
	// Stats is the merged BatchStats of every unit — the answer.
	Stats engine.BatchStats
	// Units is the plan size; Restored of them came from the manifest,
	// Executed completed live, Failed exhausted their retry budget.
	Units    int
	Restored int
	Executed int
	Failed   int
	// Retries counts failed dispatches charged to the retry budget;
	// Requeues counts the re-dispatches that followed.
	Retries  int
	Requeues int
	// Hedges counts speculative duplicate dispatches launched after
	// Options.Hedge; HedgeWins counts units whose winning result came from
	// the hedge rather than the original dispatch.
	Hedges    int
	HedgeWins int
	// DeadlineKills counts dispatches killed by Options.UnitTimeout.
	DeadlineKills int
	// Duplicates counts late results discarded because their unit was
	// already merged (hedge losers, duplicate executions after a lost
	// result). Each unit is merged exactly once no matter what this says.
	Duplicates int
	// BreakerTrips counts endpoint quarantine events.
	BreakerTrips int
}

// Run executes every shard of plan across the worker slots and returns the
// merged stats and robustness counters. Units already recorded in the
// manifest are not re-executed; their checkpointed stats are merged in. On
// unit failure past the retry budget Run finishes the remaining units, then
// reports the first failure.
func Run(plan engine.Plan, opts Options) (SweepReport, error) {
	opts.Log = wrapLog(opts.Log)
	tr, workers, br := opts.transport()
	if opts.Chaos != nil {
		tr = NewChaosTransport(tr, *opts.Chaos)
	}
	mf, restored, err := openManifest(opts.Manifest, plan)
	if err != nil {
		return SweepReport{}, err
	}
	defer mf.close()

	rep := SweepReport{Units: len(plan.Shards), Restored: len(restored)}
	state := make([]unitState, len(plan.Shards))
	for id, st := range restored {
		rep.Stats.Merge(st)
		state[id].done = true
	}
	todo := rep.Units - rep.Restored
	logf(opts.Log, "sweep: %d units (%d restored from manifest) over %d workers via %s",
		todo, rep.Restored, workers, tr.Name())
	if opts.Progress != nil && rep.Restored > 0 {
		opts.Progress(rep.Restored, rep.Units)
	}
	if todo == 0 {
		return rep, nil
	}

	c := &coordinator{opts: opts, transport: tr, workers: workers, breaker: br, mf: mf, rep: &rep,
		shards: plan.Shards, state: state}
	err = c.run(todo)
	rep.DeadlineKills = int(c.deadlineKills.Load())
	rep.BreakerTrips = int(br.Trips())
	logf(opts.Log,
		"sweep: done: units=%d restored=%d executed=%d failed=%d retries=%d requeues=%d hedges=%d hedge_wins=%d deadline_kills=%d breaker_trips=%d duplicates=%d",
		rep.Units, rep.Restored, rep.Executed, rep.Failed, rep.Retries, rep.Requeues,
		rep.Hedges, rep.HedgeWins, rep.DeadlineKills, rep.BreakerTrips, rep.Duplicates)
	return rep, err
}

// unitState is one plan unit's accounting, kept in a slice indexed by plan
// ID that only run's goroutine touches. It holds no pointers, so the slice
// is one allocation the garbage collector never scans.
type unitState struct {
	pending int32 // queued + in-flight dispatches
	tries   int32 // failed dispatches charged to the retry budget
	done    bool  // merged, restored or permanently failed
	hedged  bool  // a hedge has been launched
}

// dispatch is one trip of a unit through a worker slot, named by its plan
// ID: the slot builds the Unit from the plan only when it sends it. A unit
// can have at most two dispatches alive at once: the original (or its
// requeue) plus one hedge — the invariant that bounds the work channel.
type dispatch struct {
	id    int
	hedge bool
}

// outcome is one dispatch's terminal report back to the accounting loop.
// Every dispatch taken off the work channel produces exactly one outcome,
// and its res.ID is always the dispatch's plan ID: a slot turns a result
// that names another unit into a transport failure of its own unit.
type outcome struct {
	res   Result
	hedge bool
}

// coordinator drives a sweep's pending units through its transport's worker
// slots.
type coordinator struct {
	opts      Options
	transport Transport
	workers   int
	breaker   *Breaker // nil unless TCP with the breaker enabled
	mf        *manifest
	// rep receives the merged stats and counters. Only run's goroutine
	// writes it; the slots count deadline kills in deadlineKills instead.
	rep           *SweepReport
	deadlineKills atomic.Int64
	shards        []engine.ShardSpec // the plan, read-only; slots build Units from it
	state         []unitState        // per plan ID; run's goroutine only
	work          chan dispatch
	results       chan outcome
	hedgeReq      chan int
	stopped       atomic.Bool
}

func logf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// progress reports one more terminal unit to Options.Progress.
func (c *coordinator) progress() {
	if p := c.opts.Progress; p != nil {
		p(c.rep.Restored+c.rep.Executed+c.rep.Failed, c.rep.Units)
	}
}

// run executes the outstanding units (those not done in c.state) across the
// worker slots and merges their stats into c.rep. Accounting lives entirely
// in this goroutine: slots report one outcome per dispatch, hedge requests
// arrive over their own channel, and each unit's state entry (pending
// dispatches, tries, done, hedged) decides merging, requeueing and
// termination. A unit is merged (and checkpointed) exactly once — late
// duplicate results, hedge losers included, are discarded by ID.
func (c *coordinator) run(outstanding int) error {
	// Capacity bound: a unit has at most two dispatches alive at any moment
	// (original/requeue + one hedge), so 2·outstanding queued entries can
	// never be exceeded and neither requeues nor hedges can block this
	// goroutine against slots blocked on the results channel.
	c.work = make(chan dispatch, 2*outstanding)
	c.results = make(chan outcome, c.workers+1)
	c.hedgeReq = make(chan int, c.workers+1)
	for id := range c.state {
		if !c.state[id].done {
			c.state[id].pending = 1
			c.work <- dispatch{id: id}
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < c.workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			c.slotLoop(slot)
		}(i)
	}

	rep := c.rep
	var firstErr error
	for outstanding > 0 {
		select {
		case id := <-c.hedgeReq:
			s := &c.state[id]
			if s.done || s.hedged {
				continue
			}
			select {
			case c.work <- dispatch{id: id, hedge: true}:
				s.hedged = true
				s.pending++
				rep.Hedges++
				logf(c.opts.Log, "sweep: hedging straggler unit %d", id)
			default:
			}
		case o := <-c.results:
			id := o.res.ID
			s := &c.state[id]
			s.pending--
			if s.done {
				// The losing half of a hedge pair, or a duplicate
				// execution after a lost result: the unit was already
				// merged exactly once, this result merges zero times.
				rep.Duplicates++
				continue
			}
			if o.res.Err == "" {
				s.done = true
				if err := c.mf.record(o.res); err != nil && firstErr == nil {
					firstErr = err
				}
				rep.Stats.Merge(o.res.Stats)
				rep.Executed++
				if o.hedge {
					rep.HedgeWins++
				}
				outstanding--
				c.progress()
				continue
			}
			s.tries++
			rep.Retries++
			if int(s.tries) > c.opts.Retries {
				if s.pending > 0 {
					// A twin dispatch is still in flight and may yet
					// succeed; don't declare the unit dead while a
					// result could still arrive.
					continue
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("sweep: unit %d failed after %d attempts: %s", id, s.tries, o.res.Err)
				}
				logf(c.opts.Log, "sweep: unit %d failed permanently: %s", id, o.res.Err)
				s.done = true
				rep.Failed++
				outstanding--
				c.progress()
				continue
			}
			if s.pending > 0 {
				// The twin is still out; requeue only if it fails too.
				continue
			}
			logf(c.opts.Log, "sweep: retrying unit %d (attempt %d): %s", id, s.tries+1, o.res.Err)
			s.pending++
			rep.Requeues++
			c.work <- dispatch{id: id}
		}
	}
	c.stopped.Store(true)
	close(c.work)
	// Hedge losers may still be in flight; drain their outcomes so the
	// slots can exit, discarding results nobody is waiting for.
	go func() {
		wg.Wait()
		close(c.results)
	}()
	for o := range c.results {
		if c.state[o.res.ID].done && o.res.Err == "" {
			rep.Duplicates++
		}
	}
	return firstErr
}

// slotPinner lets a transport hand each coordinator slot its own view —
// TCP pins the preferred daemon address, decorators (ChaosTransport) pass
// the pin through to what they wrap.
type slotPinner interface {
	pinned(slot int) Transport
}

// dialSlot dials the transport with this slot's preference pinned, so the
// slots spread over the daemon addresses instead of piling onto the first
// one.
func (c *coordinator) dialSlot(start int) (Conn, error) {
	if p, ok := c.transport.(slotPinner); ok {
		return p.pinned(start).Dial()
	}
	return c.transport.Dial()
}

// noteConn reports a round-trip's endpoint success or failure to the
// breaker, when both the breaker and the connection's endpoint identity
// exist (TCP conns, chaos-wrapped or not).
func (c *coordinator) noteConn(conn Conn, ok bool) {
	br := c.breaker
	if br == nil {
		return
	}
	ec, okE := conn.(interface{ Endpoint() string })
	if !okE || ec.Endpoint() == "" {
		return
	}
	if ok {
		br.Success(ec.Endpoint())
	} else {
		br.Failure(ec.Endpoint())
	}
}

// errUnitDeadline marks dispatches killed by Options.UnitTimeout.
var errUnitDeadline = errors.New("unit deadline exceeded")

// attempt runs one unit's round-trip, arming the hedge and deadline timers
// when configured. A deadline kill abandons the round-trip: the connection
// then has a dead unit in flight whose eventual reply would desync the
// framing, so the caller must close it and redial.
func (c *coordinator) attempt(conn Conn, u Unit, hedge bool) (Result, error) {
	deadline := c.opts.UnitTimeout
	hedgeAfter := c.opts.Hedge
	if deadline <= 0 && (hedgeAfter <= 0 || hedge) {
		return conn.RoundTrip(u)
	}
	// The round-trip goroutine gets its own copy of the unit, so only this
	// branch moves one to the heap.
	unit := u
	type rt struct {
		res Result
		err error
	}
	ch := make(chan rt, 1)
	go func() {
		res, err := conn.RoundTrip(unit)
		ch <- rt{res, err}
	}()
	var hedgeC, deadlineC <-chan time.Time
	if hedgeAfter > 0 && !hedge {
		t := time.NewTimer(hedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	if deadline > 0 {
		t := time.NewTimer(deadline)
		defer t.Stop()
		deadlineC = t.C
	}
	for {
		select {
		case r := <-ch:
			return r.res, r.err
		case <-hedgeC:
			hedgeC = nil
			select {
			case c.hedgeReq <- u.ID:
			default:
			}
		case <-deadlineC:
			c.deadlineKills.Add(1)
			return Result{}, fmt.Errorf("%w (%s)", errUnitDeadline, deadline)
		}
	}
}

// slotLoop owns one worker slot: it dials the transport, streams
// dispatches through the connection, and redials on transport failure (or a
// deadline kill, which poisons the connection). Every dispatch taken off the
// work channel produces exactly one outcome — that invariant is what lets
// run's accounting terminate.
func (c *coordinator) slotLoop(slot int) {
	// Pin this slot's preferred daemon so the slots spread over the
	// addresses; start advances after every broken connection so a slot
	// whose daemon keeps dying migrates to the other addresses instead of
	// burning the retry budget against one corpse.
	start := slot
	for {
		conn, err := c.dialSlot(start)
		if err != nil {
			// Cannot reach any worker: burn one dispatch per attempt so
			// the retry budget, not this loop, decides when to give up.
			d, ok := <-c.work
			if !ok {
				return
			}
			if c.stopped.Load() {
				continue
			}
			c.results <- outcome{res: Result{ID: d.id, Err: fmt.Sprintf("dial worker: %v", err)}, hedge: d.hedge}
			continue
		}
		broken := false
		for d := range c.work {
			if c.stopped.Load() {
				continue
			}
			res, err := c.attempt(conn, Unit{ID: d.id, Spec: c.shards[d.id]}, d.hedge)
			if err == nil && res.ID != d.id {
				// A reply for another unit leaves this one unanswered and
				// the stream out of step: fail it like a dropped connection.
				err = fmt.Errorf("result for unit %d, expected %d", res.ID, d.id)
			}
			if err != nil {
				c.noteConn(conn, false)
				c.results <- outcome{res: Result{ID: d.id, Err: fmt.Sprintf("worker slot %d: %v", slot, err)}, hedge: d.hedge}
				broken = true
				break
			}
			c.noteConn(conn, true)
			c.results <- outcome{res: res, hedge: d.hedge}
		}
		conn.Close()
		if !broken {
			return // work channel closed: the sweep is done
		}
		start++
	}
}

// wrapLog makes an arbitrary caller writer safe to share between the
// coordinator, its slots and the transports they dial through.
func wrapLog(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	return &syncWriter{w: w}
}

// syncWriter serializes writes from the coordinator and transports onto one
// underlying writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
