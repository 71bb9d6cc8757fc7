package main

import (
	"fmt"
	"io"
	"time"

	"refereenet/internal/engine"
	"refereenet/internal/sweep"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // the benchmark's directory: testdata/ and out/ live here
	sz       sizes
	// maxOps caps the timed ops (0: no cap); the smoke test sets it.
	maxOps int
	// setupS is the measured set-up time; run() fills it from child probes
	// when it is zero.
	setupS float64
	log    io.Writer
}

// replayOps is how many of a traced run's ops are replayed bottom-up.
const replayOps = 32

// warmupOps run before timing: the first sweep of a process pays one-off
// costs (goroutine stacks, heap growth) no later op does.
const warmupOps = 2

// opRecord is one timed sweep op.
type opRecord struct {
	op      sweepOp
	lat     time.Duration
	stats   engine.BatchStats
	units   int
	retries int
	err     error
}

// runOp runs op i of the workload's seed through opts.
func runOp(w *sweepWorkload, seed int64, i int, opts sweep.Options) opRecord {
	op := w.op(w, seed, i)
	t := time.Now()
	rep, err := sweep.Run(op.Plan, opts)
	lat := time.Since(t)
	// The plan is not kept: a run holds thousands of records, and the
	// replay rebuilds the few plans it needs from the op index.
	op.Plan = engine.Plan{}
	return opRecord{op: op, lat: lat, stats: rep.Stats, units: rep.Units, retries: rep.Retries, err: err}
}

// more reports whether the loop should run op i: until the budget is spent
// (at least one op), at most maxOps when set.
func (cfg runConfig) more(i int, start time.Time, budget time.Duration) bool {
	if cfg.maxOps > 0 && i >= cfg.maxOps {
		return false
	}
	return i == 0 || time.Since(start) < budget
}

// runSweep runs a closed-loop sweep workload and fills rep. It returns
// whether every answer was right, and the ops attempted and failed.
//
// Untraced, it runs ops 0, 1, … for the budget. Traced, it runs each op
// twice in a row, plainly and through the span-recording transport, and
// replays each of the first replayOps ops' units through the ladder right
// after, so that the three measurements of an op see the same machine.
func runSweep(w *sweepWorkload, cfg runConfig, rep *report) (bool, int, int, error) {
	setupStart := time.Now()
	r := &rig{}
	if err := w.prepare(w, r); err != nil {
		return false, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	if r.close != nil {
		defer r.close()
	}
	setup := time.Since(setupStart)
	for i := -warmupOps; i < 0; i++ {
		if _, err := sweep.Run(w.op(w, cfg.seed, i).Plan, r.opts); err != nil {
			return false, 0, 0, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	var recs, traced []opRecord
	var tr *tracedSweep
	cost := startPhase()
	t0 := time.Now()
	if !cfg.trace {
		for i := 0; cfg.more(i, t0, budget); i++ {
			recs = append(recs, runOp(w, cfg.seed, i, r.opts))
		}
	} else {
		var err error
		if tr, err = newTracedSweep(r); err != nil {
			return false, 0, 0, err
		}
		defer tr.close()
		opts := sweep.Options{Transport: recordingTransport{inner: r.transport, rec: tr.rec}, Workers: slots}
		for i := 0; cfg.more(i, t0, budget) || (i < replayOps && (cfg.maxOps == 0 || i < cfg.maxOps)); i++ {
			recs = append(recs, runOp(w, cfg.seed, i, r.opts))
			end := tr.rec.beginOp(i, "op")
			traced = append(traced, runOp(w, cfg.seed, i, opts))
			end()
			if i < replayOps {
				if err := tr.replayOp(i, w.op(w, cfg.seed, i).Plan); err != nil {
					return false, 0, 0, fmt.Errorf("ladder replay of op %d: %w", i, err)
				}
			}
		}
	}
	cost.end()

	accepted, err := w.truth(w, cfg.seed)
	if err != nil {
		return false, 0, 0, fmt.Errorf("truth: %w", err)
	}
	correct, failed := true, 0
	for _, set := range [][]opRecord{recs, traced} {
		for i, rec := range set {
			if rec.err != nil {
				failed++
				fmt.Fprintf(cfg.log, "bench: op %d failed: %v\n", i, rec.err)
				continue
			}
			acc, err := accepted(rec.op)
			if err != nil {
				return false, 0, 0, err
			}
			if want := rec.op.expected(acc); rec.stats != want || rec.retries != 0 {
				correct = false
				fmt.Fprintf(cfg.log, "bench: op %d (%s %s %v [%d,%d)) gave %+v with %d retries, want %+v\n",
					i, rec.op.Protocol, rec.op.Kind, rec.op.Windows, rec.op.Lo, rec.op.Hi, rec.stats, rec.retries, want)
			}
		}
	}

	ops := len(recs)
	lat := make([]time.Duration, ops)
	graphs, units := 0.0, 0
	for i, rec := range recs {
		lat[i] = rec.lat
		graphs += float64(rec.op.graphs())
		units += rec.units
	}
	s := summarize(lat)
	if cfg.trace {
		// The traced loop's time and memory include the tracing and the
		// replay, so only the untraced ops' median is worth printing.
		rep.add("op_p50_ms", s.P50, "ms")
	} else {
		rep.endToEnd(cfg, s, cost)
		rep.add("graphs_per_s", graphs/cost.elapsed.Seconds(), "graphs/s")
	}
	rep.add("fail_ratio", float64(failed)/float64(ops+len(traced)), "ratio")
	rep.add("setup_in_process_s", setup.Seconds(), "s")
	if r.classBuild > 0 {
		rep.add("canon.class_build_s", r.classBuild.Seconds(), "s")
	}
	rep.add("sweep.units_per_op", float64(units)/float64(ops), "count")
	if tr != nil {
		tr.metrics(rep, s.P50, traced)
		path, err := writeTrace(cfg.dir, traceFile{Workload: w.name, Seed: cfg.seed, Spans: tr.rec.spans, Ladder: tr.rows, Metrics: reportFloats(rep)})
		if err != nil {
			return false, 0, 0, err
		}
		rep.note("spans written to %s", path)
	}
	return correct, ops + len(traced), failed, nil
}

func reportFloats(rep *report) map[string]float64 {
	out := make(map[string]float64, len(rep.values))
	for k, v := range rep.values {
		out[k] = v.Value
	}
	return out
}

// tracedSweep holds a traced run's spans and the replay of its first ops.
// The replay runs on one ladder per slot, each with its own connection, so
// it loads the machine the way the two slots of an op do.
type tracedSweep struct {
	rec      *recorder
	ladders  []*ladder
	close    func()
	costs    []unitCost
	replayed int // ops replayed
	rows     []ladderRow
	line     bool // units cross a JSON-lines transport, so the codec is on the path
}

// newTracedSweep dials one replay connection per slot through the rig's
// transport. Executor.Execute replays run on the rig's shared pool when it
// has one (TCP), else on a pool of the same size made for the replay.
func newTracedSweep(r *rig) (*tracedSweep, error) {
	if r.exec != nil {
		return newReplay(newRecorder(replayOps), r.transport, r.exec, true, true)
	}
	exec := sweep.NewExecutor(slots)
	t, err := newReplay(newRecorder(replayOps), r.transport, exec, false, true)
	if err != nil {
		exec.Close()
		return nil, err
	}
	closeConns := t.close
	t.close = func() {
		closeConns()
		exec.Close()
	}
	return t, nil
}

// newReplay builds one ladder per slot, each with its own connection
// through tr. via says the round trip executes through exec; line that it
// crosses a JSON-lines codec.
func newReplay(rec *recorder, tr sweep.Transport, exec *sweep.Executor, via, line bool) (*tracedSweep, error) {
	t := &tracedSweep{rec: rec, line: line}
	var conns []sweep.Conn
	t.close = func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for s := 0; s < slots; s++ {
		conn, err := tr.Dial()
		if err != nil {
			t.close()
			return nil, err
		}
		conns = append(conns, conn)
		t.ladders = append(t.ladders, &ladder{rec: rec, exec: exec, conn: conn, viaExecutor: via})
	}
	return t, nil
}

// replayOp replays every unit of op i's plan through the ladder.
func (t *tracedSweep) replayOp(i int, plan engine.Plan) error {
	costs, err := replayOp(t.ladders, i, plan)
	t.costs = append(t.costs, costs...)
	t.replayed = i + 1
	return err
}

// metrics computes the per-layer metrics from the traced ops' spans and
// the replay, and the traced-vs-untraced overhead.
func (t *tracedSweep) metrics(rep *report, untracedP50 float64, traced []opRecord) {
	lat := make([]time.Duration, len(traced))
	for i, rec := range traced {
		lat[i] = rec.lat
	}
	p50 := summarize(lat).P50
	rep.add("trace.op_p50_ms", p50, "ms")
	rep.add("trace.overhead_ratio", p50/untracedP50-1, "ratio")
	// The ratio covers every traced op; the ladder only the replayed ones,
	// whose spans the recorder keeps.
	rep.add("sweep.slot_wait_ratio", 1-float64(t.rec.total["roundtrip"])/float64(slots*t.rec.total["op"]), "ratio")
	wall, busy := slotTime(t.rec.spans, func(trace int) bool { return trace < t.replayed })
	sums := sumCosts(t.costs)
	t.rows = ladderRows(sums, t.line, slots*wall-busy, slots*wall)
	rep.add("trace.coverage_ratio", t.rows[len(t.rows)-1].Share, "ratio")
	unitMetrics(rep, t.costs, sums)
	rep.notes = append(rep.notes, ladderLines(t.rows)...)
}

// slotTime sums the wall time ("op" spans) of the ops pick selects and the
// time of their round trips. Slots × wall is those ops' slot time; the
// round trips fill part of it, and the rest is slot idle time, which the
// coordinator owns.
func slotTime(spans []span, pick func(trace int) bool) (wall, busy time.Duration) {
	for _, s := range spans {
		if !pick(s.Trace) {
			continue
		}
		switch s.Name {
		case "op":
			wall += s.dur()
		case "roundtrip":
			busy += s.dur()
		}
	}
	return wall, busy
}

// layerSums totals the replayed units' layer times, by the differences
// unitCost documents.
type layerSums struct {
	units, evals                                                       float64
	fill, source, kernel, fold, batch, execute, setup, split, execSelf time.Duration
	codec, roundtripSelf                                               time.Duration
	viaExecutor                                                        bool
}

func sumCosts(costs []unitCost) layerSums {
	var s layerSums
	for _, c := range costs {
		s.units++
		s.evals += float64(c.evals)
		s.fill += c.fill
		s.source += c.source
		s.kernel += c.sourceEval - c.source
		s.fold += c.batchRun - c.sourceEval
		s.batch += c.batchRun
		s.execute += c.execute
		s.setup += c.execute - c.batchRun
		s.split += c.subSum - c.execute
		s.execSelf += c.executor - c.subSum
		s.codec += c.codec
		below := c.execute
		if c.viaExecutor {
			s.viaExecutor = true
			below = c.executor
		}
		s.roundtripSelf += c.roundtrip - below
	}
	return s
}

// ladderRows lays the sums out bottom to top, then the slot idle time of
// the same ops in situ, then the total, each with its share of the ops'
// slot time; the total's share is the coverage ratio. line says the round
// trips cross the JSON codec, whose time is then part of theirs.
func ladderRows(s layerSums, line bool, idle, capacity time.Duration) []ladderRow {
	rows := []ladderRow{
		{Layer: "lanes fill", TotalMS: ms(s.fill)},
		{Layer: "source (NextBlock/Next self)", TotalMS: ms(s.source - s.fill)},
		{Layer: "kernel (protocol evaluation)", TotalMS: ms(s.kernel)},
		{Layer: "engine fold (Batch.Run self)", TotalMS: ms(s.fold)},
		{Layer: "engine shard set-up", TotalMS: ms(s.setup)},
	}
	if s.viaExecutor {
		rows = append(rows,
			ladderRow{Layer: "executor sub-shard overhead", TotalMS: ms(s.split)},
			ladderRow{Layer: "executor self", TotalMS: ms(s.execSelf)})
	}
	transport := s.roundtripSelf
	if line {
		rows = append(rows, ladderRow{Layer: "codec (JSON unit+result)", TotalMS: ms(s.codec)})
		transport -= s.codec
	}
	rows = append(rows,
		ladderRow{Layer: "transport self", TotalMS: ms(transport)},
		ladderRow{Layer: "coordinator (slot idle)", TotalMS: ms(idle)})
	total := 0.0
	for i := range rows {
		total += rows[i].TotalMS
		rows[i].Share = rows[i].TotalMS / ms(capacity)
	}
	return append(rows, ladderRow{Layer: "sum", TotalMS: total, Share: total / ms(capacity)})
}

// unitMetrics adds the per-unit and per-graph layer metrics, overall and
// per protocol and source kind.
func unitMetrics(rep *report, costs []unitCost, s layerSums) {
	per := func(d time.Duration, n float64) float64 { return float64(d) / n }
	rep.add("source.ns_per_graph", per(s.source, s.evals), "ns")
	rep.add("kernel.ns_per_graph", per(s.kernel, s.evals), "ns")
	rep.add("engine.fold_ns_per_graph", per(s.fold, s.evals), "ns")
	rep.add("engine.batch_run_ns_per_graph", per(s.batch, s.evals), "ns")
	rep.add("engine.execute_shard_us_per_unit", us(s.execute)/s.units, "us")
	rep.add("engine.shard_setup_us_per_unit", us(s.setup)/s.units, "us")
	rep.add("sweep.codec_us_per_unit", us(s.codec)/s.units, "us")
	rep.add("sweep.executor_self_us_per_unit", us(s.execSelf)/s.units, "us")
	rep.add("sweep.roundtrip_self_us_per_unit", us(s.roundtripSelf)/s.units, "us")

	type acc struct {
		blocks, evals, units                    float64
		fill, source, kernel, fold, batch, open time.Duration
	}
	byProto, byKind := map[string]*acc{}, map[string]*acc{}
	get := func(m map[string]*acc, k string) *acc {
		if m[k] == nil {
			m[k] = &acc{}
		}
		return m[k]
	}
	for _, c := range costs {
		for _, a := range []*acc{get(byProto, c.protocol), get(byKind, c.kind)} {
			a.units++
			a.evals += float64(c.evals)
			a.batch += c.batchRun
			a.open += c.open
			if c.vector {
				a.blocks += float64(c.blocks)
				a.fill += c.fill
				a.source += c.source
				a.kernel += c.sourceEval - c.source
				a.fold += c.batchRun - c.sourceEval
			}
		}
	}
	var blocks float64
	var fold time.Duration
	for _, p := range sortedKeys(byProto) {
		a := byProto[p]
		rep.add("engine.batch_run_ns_per_graph."+p, per(a.batch, a.evals), "ns")
		if a.blocks > 0 {
			rep.add("lanes.kernel_ns_per_block."+p, per(a.kernel, a.blocks), "ns")
			blocks += a.blocks
			fold += a.fold
		}
	}
	if blocks > 0 {
		rep.add("engine.fold_ns_per_block", per(fold, blocks), "ns")
	}
	if a := byKind["gray"]; a != nil && a.blocks > 0 {
		rep.add("lanes.fill_gray_ns_per_block", per(a.fill, a.blocks), "ns")
		rep.add("collide.next_block_ns_per_block", per(a.source, a.blocks), "ns")
	}
	if a := byKind["canon"]; a != nil && a.blocks > 0 {
		rep.add("lanes.fill_masks_ns_per_block", per(a.fill, a.blocks), "ns")
		rep.add("canon.next_block_ns_per_block", per(a.source, a.blocks), "ns")
		rep.add("canon.source_open_us_per_unit", us(a.open)/a.units, "us")
	}
}
