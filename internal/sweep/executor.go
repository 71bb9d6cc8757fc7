package sweep

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"refereenet/internal/engine"
)

// Executor is a process's one execution pool: a fixed set of worker
// goroutines that every surface executing units drains through — the
// `refereesim serve` daemon's connections, the HTTP job service's jobs, and
// sweep.Run over InProcess. The caller creates it, shares it between those
// surfaces and closes it once they have drained; nothing in this package
// creates or closes a pool on its own. A unit whose source kind has a
// registered splitter (engine.SplitShard — "gray" rank ranges, explicit
// "file" record ranges) is cut into up to `workers` sub-shards that execute
// concurrently on the pool and merge; unsplittable units occupy one pool
// slot. Every execution — split or not — goes through the pool, so total
// concurrent shard executions across all surfaces never exceed the pool
// size: one big machine stands in for k single-threaded daemons without k
// processes, and without oversubscription when more than k coordinators dial
// in.
//
// A nil *Executor is the pool-less executor: Execute runs the unit on the
// calling goroutine by direct call, and Workers reports 1.
//
// Merged results are byte-identical to single-threaded execution:
// sub-shards cover disjoint slices of exactly the unit's stream, and
// engine.BatchStats.Merge is exact integer arithmetic (commutative and
// associative), so completion order cannot change the totals.
type Executor struct {
	workers int
	tasks   chan execTask
	done    chan struct{}
	closed  sync.Once
	wg      sync.WaitGroup
}

// execTask is one sub-shard on the pool: execute spec, send the outcome.
// abandon is the task's unit-level kill switch — set after any sibling
// sub-shard fails, because the unit is then doomed to Result.Err and will be
// retried whole, so finishing its remaining sub-shards would only hold pool
// slots hostage against every other connection's units.
type execTask struct {
	spec    engine.ShardSpec
	out     chan<- execOutcome
	abandon *atomic.Bool
}

type execOutcome struct {
	stats engine.BatchStats
	err   error
}

// errAbandoned marks sub-shards skipped because a sibling already failed;
// the drain loop never reports it over the sibling's real error.
var errAbandoned = errors.New("sweep: sub-shard abandoned after a sibling failed")

// errPoolClosed marks sub-shards that could not be submitted because the
// pool shut down. Unlike errAbandoned it is a real unit failure: the
// coordinator's retry path re-dispatches the unit to a live worker.
var errPoolClosed = errors.New("sweep: executor closed")

// NewExecutor starts a pool of workers goroutines (minimum 1). Close it to
// release them.
func NewExecutor(workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	e := &Executor{workers: workers, tasks: make(chan execTask), done: make(chan struct{})}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer e.wg.Done()
			for {
				var t execTask
				select {
				case <-e.done:
					return
				case t = <-e.tasks:
				}
				if t.abandon.Load() {
					t.out <- execOutcome{err: errAbandoned}
					continue
				}
				st, err := executeSpec(t.spec)
				if err != nil {
					t.abandon.Store(true)
				}
				t.out <- execOutcome{stats: st, err: err}
			}
		}()
	}
	return e
}

// Workers returns the pool size; 1 for the nil executor.
func (e *Executor) Workers() int {
	if e == nil {
		return 1
	}
	return e.workers
}

// Close stops the pool's goroutines and waits for in-flight sub-shards to
// finish. It is idempotent and safe to call concurrently with Execute: the
// pool's lifetime is signalled on a done channel rather than by closing the
// task channel, so a racing submitter (a coordinator's last round-trip
// landing while a daemon shuts down, or a job-service runner racing service
// shutdown) gets an error Result instead of a send-on-closed-channel panic.
func (e *Executor) Close() {
	e.closed.Do(func() { close(e.done) })
	e.wg.Wait()
}

// Execute runs one unit over the pool and returns its Result; the nil
// executor runs it on the calling goroutine instead. Execute is safe to call
// from any number of goroutines at once: sub-shard submission interleaves
// fairly on the shared task channel (pool workers never submit, so
// submission always drains). If any sub-shard fails, the unit fails —
// partial stats must never merge into a coordinator's totals — and its
// remaining sub-shards are abandoned rather than executed, so a doomed unit
// cannot starve the other surfaces' work. Execute racing or following Close
// yields a Result whose Err reports the closed pool, never a panic.
func (e *Executor) Execute(u Unit) Result {
	if e == nil {
		return executeUnit(u)
	}
	parts := engine.SplitShard(u.Spec, e.workers)
	out := make(chan execOutcome, len(parts))
	var abandon atomic.Bool
	go func() {
		for _, spec := range parts {
			if abandon.Load() {
				out <- execOutcome{err: errAbandoned}
				continue
			}
			// Guard the submission with the pool's lifetime: a closed pool
			// fails the sub-shard (dooming the unit to Result.Err, which the
			// coordinator retries elsewhere) instead of panicking the daemon.
			select {
			case e.tasks <- execTask{spec: spec, out: out, abandon: &abandon}:
			case <-e.done:
				abandon.Store(true)
				out <- execOutcome{err: errPoolClosed}
			}
		}
	}()
	var total engine.BatchStats
	var firstErr error
	for range parts {
		o := <-out
		if o.err != nil {
			// The first REAL error names the failure; abandonment notices
			// may arrive in any order relative to it and never displace it.
			if firstErr == nil || (errors.Is(firstErr, errAbandoned) && !errors.Is(o.err, errAbandoned)) {
				firstErr = o.err
			}
			continue
		}
		total.Merge(o.stats)
	}
	if firstErr != nil {
		return unitResult(u.ID, engine.BatchStats{}, firstErr)
	}
	return unitResult(u.ID, total, nil)
}

// executeUnit runs one unit through the engine on the calling goroutine.
func executeUnit(u Unit) Result {
	st, err := executeSpec(u.Spec)
	return unitResult(u.ID, st, err)
}

// executeSpec is one shard through the engine with the panic guarantee: a
// poisoned spec (a protocol bug, a corpus that lies about itself) becomes the
// unit's error, never a dead goroutine — a long-lived daemon must outlive any
// single poisoned unit, and the coordinator's retry accounting, not a crash,
// decides what a repeated failure means.
func executeSpec(spec engine.ShardSpec) (st engine.BatchStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st = engine.BatchStats{}
			err = fmt.Errorf("unit panicked: %v", r)
		}
	}()
	return engine.ExecuteShard(spec)
}

// unitResult folds an execution outcome into the wire Result shape.
func unitResult(id int, st engine.BatchStats, err error) Result {
	res := Result{ID: id}
	if err != nil {
		res.Err = err.Error()
	} else {
		res.Stats = st
	}
	return res
}
