package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"refereenet/internal/bits"
	"refereenet/internal/canon"
	"refereenet/internal/engine"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
	"refereenet/internal/sweep"
)

// This file is the only place the benchmark calls below sweep.Run: the
// bottom-up replay of a traced op's units, one public entry point at a
// time. When a source or kernel contract is renamed, only this file
// changes.

// unitCost is one unit's replay. The layer self times are differences of
// these: kernel = sourceEval − source, fold = batchRun − sourceEval, shard
// set-up = execute − batchRun, executor sub-shard overhead = subSum −
// execute, executor self = executor − subSum, round-trip self = roundtrip −
// (executor or execute). Executor self compares with subSum, not the
// slowest sub-shard, because the replay's two slots share the two pool
// workers as an op's do: each Execute gets one worker's time on average.
type unitCost struct {
	protocol    string
	kind        string        // source kind
	vector      bool          // the batch takes the lane path
	evals       uint64        // graphs (class representatives) evaluated
	blocks      uint64        // lane blocks, vector units only
	open        time.Duration // canon.NewClassSource, canon units only
	fill        time.Duration // FillGray or FillMasks alone over the unit's graphs
	source      time.Duration // drain the source
	sourceEval  time.Duration // drain the source and evaluate the protocol
	batchRun    time.Duration // Batch.Run on a reused Batch
	execute     time.Duration // engine.ExecuteShard
	subSum      time.Duration // ExecuteShard over SplitShard(spec, pool size), summed
	executor    time.Duration // Executor.Execute
	codec       time.Duration // JSON encode+decode of the Unit and its Result
	roundtrip   time.Duration // Conn.RoundTrip through the workload's transport
	viaExecutor bool          // the round trip executes through an Executor
}

// ladder replays units against a running rig; a replay has one per slot.
type ladder struct {
	rec         *recorder
	exec        *sweep.Executor // executes Executor.Execute replays
	conn        sweep.Conn      // the workload's transport, for the round trip
	viaExecutor bool
	masks       map[int][]uint64 // canon class masks per n
	trace       int              // op being replayed
	parent      int              // span the next timed call hangs under
}

// timed runs f and records it as a span of unit under the current parent.
func (l *ladder) timed(name string, unit int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.rec.add(span{Trace: l.trace, Parent: l.parent, Name: name, Start: l.rec.ns(start), End: l.rec.ns(end), Unit: unit, Slot: -1})
	return end.Sub(start)
}

// replayOp replays every unit of op trace's plan on the ladders, in three
// phases that the ladders share out unit by unit, as the coordinator's
// slots do: each unit's lower layers one call at a time, then every unit
// through Executor.Execute back to back, then every unit through
// Conn.RoundTrip back to back — the way a slot streams units, so the round
// trips pay what they pay in the op and not the wake-up of an idle worker.
func replayOp(ladders []*ladder, trace int, plan engine.Plan) ([]unitCost, error) {
	n := len(plan.Shards)
	costs := make([]unitCost, n)
	wants := make([]engine.BatchStats, n)
	unit := func(id int) sweep.Unit { return sweep.Unit{ID: id, Spec: plan.Shards[id]} }
	phase := func(f func(l *ladder, id int) error) error {
		ids := make(chan int, n)
		for id := 0; id < n; id++ {
			ids <- id
		}
		close(ids)
		errs := make([]error, len(ladders))
		var wg sync.WaitGroup
		for s, l := range ladders {
			wg.Add(1)
			go func(s int, l *ladder) {
				defer wg.Done()
				l.trace, l.parent = trace, 0
				for id := range ids {
					if err := f(l, id); err != nil {
						errs[s] = fmt.Errorf("unit %d: %w", id, err)
						return
					}
				}
			}(s, l)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	err := phase(func(l *ladder, id int) (err error) {
		costs[id], wants[id], err = l.lower(unit(id))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = phase(func(l *ladder, id int) error {
		var res sweep.Result
		costs[id].executor = l.timed("replay.executor", id, func() { res = l.exec.Execute(unit(id)) })
		if res.Err != "" || res.Stats != wants[id] {
			return fmt.Errorf("ladder: Executor.Execute gave %+v (%s), ExecuteShard %+v", res.Stats, res.Err, wants[id])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = phase(func(l *ladder, id int) error {
		var res sweep.Result
		var err error
		costs[id].roundtrip = l.timed("replay.roundtrip", id, func() { res, err = l.conn.RoundTrip(unit(id)) })
		if err != nil || res.Err != "" || res.Stats != wants[id] {
			return fmt.Errorf("ladder: RoundTrip gave %+v (%v %s), ExecuteShard %+v", res.Stats, err, res.Err, wants[id])
		}
		return nil
	})
	return costs, err
}

// lower times one unit's layers below the executor, one public call at a
// time. engine.ExecuteShard runs first; its stats are the answer every
// other layer must repeat.
func (l *ladder) lower(u sweep.Unit) (unitCost, engine.BatchStats, error) {
	spec := u.Spec
	var end func()
	l.parent, end = l.rec.open(span{Trace: l.trace, Name: "replay.unit", Unit: u.ID, Slot: -1})
	defer func() {
		end()
		l.parent = 0
	}()

	c := unitCost{protocol: spec.Protocol, kind: spec.Source.Kind, viaExecutor: l.viaExecutor}
	var want engine.BatchStats
	p, ok := engine.New(spec.Protocol, spec.Config)
	if !ok {
		return c, want, fmt.Errorf("ladder: unknown protocol %q", spec.Protocol)
	}
	decider, _ := p.(engine.Decider)
	if !spec.Decide {
		decider = nil
	}
	var kern lanes.Kernel
	if v, ok := p.(engine.VectorLocal); ok {
		kern = v.VectorKernel(decider != nil)
	}
	maxN := max(spec.Config.N, spec.Source.N)
	resolve := func() (engine.Source, error) { return engine.ResolveSource(spec.Source) }
	probe, err := resolve()
	if err != nil {
		return c, want, err
	}
	_, blockSrc := probe.(engine.BlockSource)
	if _, weighted := probe.(engine.Weighted); weighted {
		_, blockSrc = probe.(engine.WeightedBlockSource)
	}
	c.vector = kern != nil && blockSrc

	c.execute = l.timed("replay.execute_shard", u.ID, func() { want, err = engine.ExecuteShard(spec) })
	if err != nil {
		return c, want, err
	}
	if spec.Source.Kind == "canon" {
		c.open = l.timed("replay.canon_open", u.ID, func() { _, err = canon.NewClassSource(spec.Source.N, spec.Source.Lo, spec.Source.Hi) })
		if err != nil {
			return c, want, err
		}
	}
	if c.vector {
		err = l.replayLanes(&c, u.ID, spec, kern, resolve)
	} else {
		err = l.replayScalar(&c, u.ID, p, decider, maxN, resolve)
	}
	if err != nil {
		return c, want, err
	}

	b := engine.NewBatch(p, engine.BatchOptions{Workers: 1, Decide: spec.Decide, MaxN: maxN})
	defer b.Close()
	src, err := resolve()
	if err != nil {
		return c, want, err
	}
	var st engine.BatchStats
	c.batchRun = l.timed("replay.batch_run", u.ID, func() { st = b.Run(src) })
	if st != want {
		return c, want, fmt.Errorf("ladder: Batch.Run gave %+v, ExecuteShard %+v", st, want)
	}
	for _, sub := range engine.SplitShard(spec, l.exec.Workers()) {
		d := l.timed("replay.execute_sub", u.ID, func() { _, err = engine.ExecuteShard(sub) })
		if err != nil {
			return c, want, err
		}
		c.subSum += d
	}
	res := sweep.Result{ID: u.ID, Stats: want}
	c.codec = l.timed("replay.codec", u.ID, func() { err = codecRoundTrip(u, res) }) / codecReps
	return c, want, err
}

// replayLanes times the lane path's layers: the gather or Gray fill alone,
// the source's NextBlock (with Weights on a weighted source) alone, and the
// same drain with the protocol's kernel applied to every block.
func (l *ladder) replayLanes(c *unitCost, id int, spec engine.ShardSpec, kern lanes.Kernel, resolve func() (engine.Source, error)) error {
	var blk lanes.Block
	n := spec.Source.N
	switch spec.Source.Kind {
	case "gray":
		lo, hi := spec.Source.Lo, spec.Source.Hi
		c.fill = l.timed("replay.fill_gray", id, func() {
			for r := lo; r < hi; r += lanes.Lanes {
				blk.FillGray(n, r, int(min(hi-r, lanes.Lanes)))
			}
		})
	case "canon":
		masks, err := l.classMasks(n)
		if err != nil {
			return err
		}
		masks = masks[spec.Source.Lo:spec.Source.Hi]
		c.fill = l.timed("replay.fill_masks", id, func() {
			for i := 0; i < len(masks); i += lanes.Lanes {
				blk.FillMasks(n, masks[i:min(i+lanes.Lanes, len(masks))])
			}
		})
	}
	drain := func(name string, withKernel bool) (time.Duration, error) {
		src, err := resolve()
		if err != nil {
			return 0, err
		}
		bs := src.(engine.BlockSource)
		ws, weighted := src.(engine.WeightedBlockSource)
		var w [lanes.Lanes]uint64
		var st lanes.BlockStats
		blocks, evals := uint64(0), uint64(0)
		d := l.timed(name, id, func() {
			for bs.NextBlock(&blk) {
				if weighted {
					ws.Weights(&w)
				}
				if withKernel {
					st = lanes.BlockStats{}
					kern(&blk, &st)
				}
				blocks++
				evals += uint64(blk.Count())
			}
		})
		c.blocks, c.evals = blocks, evals
		return d, nil
	}
	var err error
	if c.source, err = drain("replay.next_block", false); err != nil {
		return err
	}
	c.sourceEval, err = drain("replay.next_block_kernel", true)
	return err
}

// replayScalar times the scalar path's layers: the source's Next alone, and
// the same drain with every node's local message and the referee's verdict
// computed the way the batch's scalar loop does.
func (l *ladder) replayScalar(c *unitCost, id int, p engine.Local, decider engine.Decider, maxN int, resolve func() (engine.Source, error)) error {
	buffered, _ := p.(engine.BufferedLocal)
	msgs := make([]bits.String, maxN)
	nbrs := make([]int, 0, maxN)
	var arena []byte
	var w bits.Writer
	eval := func(g *graph.Graph) {
		n := g.N()
		arena = arena[:0]
		for v := 1; v <= n; v++ {
			nbrs = g.AppendNeighbors(v, nbrs[:0])
			if buffered != nil {
				w.Reset()
				buffered.AppendLocalMessage(&w, n, v, nbrs)
				msgs[v-1], arena = w.AppendTo(arena)
			} else {
				msgs[v-1] = p.LocalMessage(n, v, nbrs)
			}
		}
		if decider != nil {
			decider.Decide(n, msgs[:n])
		}
	}
	drain := func(name string, withEval bool) (time.Duration, error) {
		src, err := resolve()
		if err != nil {
			return 0, err
		}
		weighted, _ := src.(engine.Weighted)
		evals := uint64(0)
		d := l.timed(name, id, func() {
			for g := src.Next(); g != nil; g = src.Next() {
				if weighted != nil {
					weighted.Weight()
				}
				if withEval {
					eval(g)
				}
				evals++
			}
		})
		c.evals = evals
		return d, nil
	}
	var err error
	if c.source, err = drain("replay.next", false); err != nil {
		return err
	}
	c.sourceEval, err = drain("replay.next_eval", true)
	return err
}

func (l *ladder) classMasks(n int) ([]uint64, error) {
	if m, ok := l.masks[n]; ok {
		return m, nil
	}
	classes, err := canon.Classes(n)
	if err != nil {
		return nil, err
	}
	m := make([]uint64, len(classes))
	for i, cl := range classes {
		m[i] = cl.Mask
	}
	if l.masks == nil {
		l.masks = map[int][]uint64{}
	}
	l.masks[n] = m
	return m, nil
}

// codecReps is how many times the codec round trip repeats per unit, so a
// few-microsecond encode is timed well above the clock's resolution.
const codecReps = 8

// codecRoundTrip encodes and decodes the unit and its result as the wire
// does, codecReps times.
func codecRoundTrip(u sweep.Unit, res sweep.Result) error {
	for i := 0; i < codecReps; i++ {
		buf, err := json.Marshal(u)
		if err != nil {
			return err
		}
		var u2 sweep.Unit
		if err := json.Unmarshal(buf, &u2); err != nil {
			return err
		}
		if buf, err = json.Marshal(res); err != nil {
			return err
		}
		var r2 sweep.Result
		if err := json.Unmarshal(buf, &r2); err != nil {
			return err
		}
	}
	return nil
}

// poolTransport couples a sweep to an Executor directly, the way the job
// service runs its jobs: a round trip is one Executor.Execute, no codec.
type poolTransport struct{ exec *sweep.Executor }

type poolConn struct{ exec *sweep.Executor }

func (p poolTransport) Name() string { return "pool" }

func (p poolTransport) Dial() (sweep.Conn, error) { return poolConn(p), nil }

func (c poolConn) RoundTrip(u sweep.Unit) (sweep.Result, error) { return c.exec.Execute(u), nil }

func (c poolConn) Close() error { return nil }
