package engine

import (
	mathbits "math/bits"
	"runtime"
	"sync"

	"refereenet/internal/bits"
	"refereenet/internal/graph"
	"refereenet/internal/lanes"
)

// Source streams graphs into a batch run. Next returns the next graph, or
// nil when the stream is exhausted. Next is called from one goroutine at a
// time (the batch engine serializes access when sharing a source across
// workers).
type Source interface {
	Next() *graph.Graph
}

// Weighted marks sources whose graphs stand for more than one graph each —
// the isomorphism-quotient plane streams one representative per class and
// Weight reports the labelled-orbit size of the graph most recently returned
// by Next. The batch engine multiplies every per-graph tally (Graphs,
// TotalBits, Accepted, Rejected, Errors) by the weight, so merged stats
// reconstitute exact labelled totals; MaxBits and MaxN are per-graph maxima
// and stay unweighted. Because Weight is read after Next — a stateful pair —
// Batch.Run keeps a weighted source on the calling goroutine; split a
// weighted stream into per-shard sources to parallelize it.
type Weighted interface {
	Weight() uint64
}

// BlockSource is implemented by sources that can serve their stream as
// transposed 64-graph lanes.Blocks — the Gray enumerator, whose one-bit
// steps make the transpose a single XOR per rank. NextBlock overwrites blk
// with the next ≤ 64 graphs and advances the stream, returning false at
// exhaustion; ragged tails (a range not divisible by 64) surface as blocks
// whose LiveMask covers fewer than 64 lanes. Batch consumes blocks only
// when the protocol opted into VectorLocal; otherwise the source's scalar
// Next carries the run, so implementing BlockSource is always safe.
//
// A BlockSource's Next reuses one graph (the Gray enumerator toggles one
// edge per step into one *graph.Graph): the yielded pointer is valid only
// until the next call. Batch.Run therefore keeps any BlockSource on the
// calling goroutine; split its stream into per-worker range sources and
// use RunShards to parallelize it.
type BlockSource interface {
	Source
	NextBlock(blk *lanes.Block) bool
}

// WeightedBlockSource is implemented by Weighted sources that can also
// serve their stream as lanes.Blocks — the isomorphism-quotient plane,
// whose class representatives are not Gray-adjacent and are kept
// pre-transposed, so blocks load via lanes.Block.FillTable. Weights fills
// w with the orbit weight of each slot of the block most recently served
// by NextBlock (dead-lane slots are zero); like the scalar Next/Weight
// pair, the NextBlock/Weights pair is stateful and runs on one goroutine.
// The batch fold scales each live lane of the kernel's per-lane result by
// its own weight.
type WeightedBlockSource interface {
	BlockSource
	Weighted
	Weights(w *[lanes.Lanes]uint64)
}

// Erring is implemented by sources that can fail mid-stream — a disk corpus
// truncated or corrupted underneath the sweep. Source.Next has no error
// channel, so such sources end the stream (return nil) and park the failure
// here; ExecuteShard checks it after the run and fails the shard, which the
// wire layer maps onto Result.Err. Err returns nil after a clean exhaustion.
type Erring interface {
	Err() error
}

// SliceSource streams a pre-built corpus. Reset rewinds it, so one corpus
// can feed many runs (the batch benchmarks rely on this for steady-state
// measurements).
type SliceSource struct {
	graphs []*graph.Graph
	pos    int
}

// NewSliceSource returns a source over gs.
func NewSliceSource(gs []*graph.Graph) *SliceSource { return &SliceSource{graphs: gs} }

// Next implements Source.
func (s *SliceSource) Next() *graph.Graph {
	if s.pos >= len(s.graphs) {
		return nil
	}
	g := s.graphs[s.pos]
	s.pos++
	return g
}

// Reset rewinds the source to the first graph.
func (s *SliceSource) Reset() { s.pos = 0 }

// Len returns the corpus size.
func (s *SliceSource) Len() int { return len(s.graphs) }

// BatchStats aggregates one batch run. It is the merge stage's unit of
// state: every field is either a sum or a max, so Merge is commutative and
// associative, and per-shard stats — whether from a goroutine, another
// process, or a checkpoint manifest on disk — combine into run totals in any
// order without coordination. The JSON form is the wire and manifest format
// of internal/sweep.
type BatchStats struct {
	Graphs    uint64 `json:"graphs"`     // graphs processed
	TotalBits uint64 `json:"total_bits"` // Σ transcript TotalBits
	MaxBits   int    `json:"max_bits"`   // max single message over the whole run
	MaxN      int    `json:"max_n"`      // largest graph seen
	Accepted  uint64 `json:"accepted"`   // decider said yes (Decide enabled)
	Rejected  uint64 `json:"rejected"`   // decider said no
	Errors    uint64 `json:"errors"`     // referee errors
}

// Merge folds o into s. Counters add and maxima take the larger value, so
// merging is commutative and associative: any shard completion order yields
// identical totals.
func (s *BatchStats) Merge(o BatchStats) {
	s.Graphs += o.Graphs
	s.TotalBits += o.TotalBits
	if o.MaxBits > s.MaxBits {
		s.MaxBits = o.MaxBits
	}
	if o.MaxN > s.MaxN {
		s.MaxN = o.MaxN
	}
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Errors += o.Errors
}

// MeanBitsPerGraph returns the average transcript volume.
func (s *BatchStats) MeanBitsPerGraph() float64 {
	if s.Graphs == 0 {
		return 0
	}
	return float64(s.TotalBits) / float64(s.Graphs)
}

// BatchOptions configures a Batch.
type BatchOptions struct {
	// Workers sizes the worker pool; ≤ 0 means one per CPU, 1 runs every
	// graph on the calling goroutine (the allocation-free path).
	Workers int
	// Sched, when non-nil, runs each graph's local phase under this
	// scheduler instead of the worker's serial in-place loop — batching
	// across graphs composes with scheduling within a graph. Setting it
	// bypasses the BufferedLocal arena fast path (schedulers return
	// protocol-allocated messages), so it trades the zero-allocation steady
	// state for intra-graph parallelism or shuffled delivery.
	Sched Scheduler
	// Decide runs the referee's global function on every transcript when the
	// protocol is a Decider, tallying Accepted/Rejected/Errors.
	Decide bool
	// MaxN, when positive, pre-sizes every worker's scratch (message vector,
	// neighbor buffer, and — for protocols exposing MessageBits — the writer
	// and byte arena) for graphs up to that size at NewBatch time, on the
	// calling goroutine. Without it the buffers grow lazily on whichever
	// worker goroutine first needs them, which is correct but makes the
	// first-touch allocation land inside someone's measurement window.
	MaxN int
	// OnTranscript, when non-nil, is called for every graph with its
	// transcript, on the worker goroutine that produced it. Neither g nor t
	// may be retained: both may be reused for the next graph.
	OnTranscript func(g *graph.Graph, t *Transcript)
	// NoVector disables the VectorLocal lane-parallel fast path, forcing the
	// scalar loop even when protocol and source both support blocks. It is a
	// process-local toggle for differential tests and benchmarks and is
	// never on the wire: remote scalar forcing goes through the Sched field
	// (any non-nil scheduler bypasses the vector path), exactly as
	// `-sched chunked` forces the non-arena path today.
	NoVector bool
}

// Sized is implemented by protocols whose exact per-node message size on
// n-node graphs is publicly computable (the paper's fixed-width encodings).
// The batch engine uses it to pre-size message arenas.
type Sized interface {
	MessageBits(n int) int
}

// Batch runs one protocol over streams of graphs. Create it once, Run it per
// stream: workers, channels and per-worker scratch (message vectors, writer,
// byte arena, neighbor buffers) persist across runs, which is what makes the
// steady state allocation-free for BufferedLocal protocols. A Batch is not
// safe for concurrent Runs; Close it to release the worker goroutines.
type Batch struct {
	p        Local
	buffered BufferedLocal // non-nil when p opts into the arena path
	decider  Decider       // non-nil when opts.Decide and p decides
	vkern    lanes.Kernel  // non-nil when p opts into the lane-parallel path
	opts     BatchOptions
	workers  int

	jobs   chan *batchShard
	done   chan *batchShard
	shards []batchShard
	locked lockedSource
	inline batchShard // the Workers==1 / block- or weighted-source slot
	sc     *batchScratch
	closed bool
}

type batchShard struct {
	src   Source
	stats BatchStats
}

type batchScratch struct {
	msgs  []bits.String
	nbrs  []int
	arena []byte
	w     bits.Writer
	t     Transcript
	blk   lanes.Block      // per-worker: block sources may run on pool goroutines
	bs    lanes.BlockStats // per-block kernel result, reused so the hot loop stays 0 alloc
	wts   [lanes.Lanes]uint64
}

// sized returns the n-message slice, growing the scratch on first need (the
// lazy path for batches built without MaxN).
func (sc *batchScratch) sized(n int) []bits.String {
	if cap(sc.msgs) < n {
		sc.msgs = make([]bits.String, n)
	}
	if cap(sc.nbrs) < n {
		sc.nbrs = make([]int, 0, n)
	}
	return sc.msgs[:n]
}

type lockedSource struct {
	mu  sync.Mutex
	src Source
}

func (l *lockedSource) Next() *graph.Graph {
	l.mu.Lock()
	g := l.src.Next()
	l.mu.Unlock()
	return g
}

// NewBatch builds a reusable batch runner for p.
func NewBatch(p Local, opts BatchOptions) *Batch {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &Batch{p: p, opts: opts, workers: workers}
	if opts.Sched == nil {
		b.buffered, _ = p.(BufferedLocal)
	}
	if opts.Decide {
		b.decider, _ = p.(Decider)
	}
	// The vector path replaces the whole per-graph loop, so it only engages
	// when nothing needs that loop's artifacts: no scheduler (schedulers are
	// wall-clock semantics over per-graph message vectors) and no transcript
	// observer. Whether the kernel must tally verdicts follows the same
	// decision as the scalar loop's decider.
	if opts.Sched == nil && opts.OnTranscript == nil && !opts.NoVector {
		if v, ok := p.(VectorLocal); ok {
			b.vkern = v.VectorKernel(b.decider != nil)
		}
	}
	b.sc = b.newScratch()
	if workers > 1 {
		b.jobs = make(chan *batchShard)
		b.done = make(chan *batchShard, workers)
		for i := 0; i < workers; i++ {
			// Scratch is allocated (and, with MaxN, fully pre-sized) here on
			// the creating goroutine: a worker that is never scheduled until
			// later must not allocate inside someone else's measurement.
			go b.worker(b.newScratch())
		}
	}
	return b
}

// newScratch builds one worker's scratch, pre-sized per opts.MaxN.
func (b *Batch) newScratch() *batchScratch {
	sc := &batchScratch{}
	n := b.opts.MaxN
	if n <= 0 {
		return sc
	}
	sc.msgs = make([]bits.String, n)
	sc.nbrs = make([]int, 0, n)
	if sz, ok := b.p.(Sized); ok && b.buffered != nil {
		perMsg := (sz.MessageBits(n) + 7) / 8
		sc.arena = make([]byte, 0, perMsg*n)
		// Pre-grow the writer's internal buffer to one message.
		for i := 0; i < perMsg*8; i++ {
			sc.w.WriteBit(0)
		}
		sc.w.Reset()
	}
	return sc
}

// Close stops the worker goroutines. The Batch must not be used afterwards.
func (b *Batch) Close() {
	if b.jobs != nil && !b.closed {
		close(b.jobs)
	}
	b.closed = true
}

func (b *Batch) worker(sc *batchScratch) {
	for sh := range b.jobs {
		b.runShard(sh, sc)
		b.done <- sh
	}
}

// Run streams src through the protocol and returns aggregated stats. With
// one worker — or a BlockSource, whose reused graph cannot be shared, or a
// Weighted source, whose Next/Weight pair cannot straddle goroutines — the
// whole run happens on the calling goroutine.
func (b *Batch) Run(src Source) BatchStats {
	_, block := src.(BlockSource)
	_, weighted := src.(Weighted)
	if b.workers == 1 || block || weighted {
		b.inline.src = src
		b.runShard(&b.inline, b.sc)
		b.inline.src = nil
		return b.inline.stats
	}
	b.locked.src = src
	if cap(b.shards) < b.workers {
		b.shards = make([]batchShard, b.workers)
	}
	shards := b.shards[:b.workers]
	for i := range shards {
		shards[i].src = &b.locked
	}
	out := b.dispatch(shards)
	b.locked.src = nil
	return out
}

// RunShards runs one independent source per shard — the natural shape for
// pre-split streams such as Gray-code rank ranges, where per-shard sources
// stay allocation-free because no graph crosses a goroutine. Shards are
// distributed over the worker pool; with one worker they run sequentially.
func (b *Batch) RunShards(srcs ...Source) BatchStats {
	if b.workers == 1 {
		var out BatchStats
		for _, src := range srcs {
			b.inline.src = src
			b.runShard(&b.inline, b.sc)
			b.inline.src = nil
			out.Merge(b.inline.stats)
		}
		return out
	}
	if cap(b.shards) < len(srcs) {
		b.shards = make([]batchShard, len(srcs))
	}
	shards := b.shards[:len(srcs)]
	for i := range shards {
		shards[i].src = srcs[i]
	}
	out := b.dispatch(shards)
	for i := range shards {
		shards[i].src = nil
	}
	return out
}

// dispatch feeds shards to the workers and merges their stats, interleaving
// sends and completions so any shard count works with any pool size.
func (b *Batch) dispatch(shards []batchShard) BatchStats {
	var out BatchStats
	sent, recvd := 0, 0
	for recvd < len(shards) {
		if sent < len(shards) {
			select {
			case b.jobs <- &shards[sent]:
				sent++
			case sh := <-b.done:
				out.Merge(sh.stats)
				recvd++
			}
		} else {
			sh := <-b.done
			out.Merge(sh.stats)
			recvd++
		}
	}
	return out
}

// runShard picks the shard's loop once — blocks or graphs — instead of
// re-branching on the invariants inside the hot loop. A Weighted source
// vectorizes only through the explicit WeightedBlockSource capability
// (orbit weights are per-slot); a merely-Weighted BlockSource stays on the
// per-graph loop, where Next/Weight pair up.
func (b *Batch) runShard(sh *batchShard, sc *batchScratch) {
	sh.stats = BatchStats{}
	w, _ := sh.src.(Weighted)
	if bs, ok := sh.src.(BlockSource); ok && b.vkern != nil {
		ws, _ := bs.(WeightedBlockSource)
		if w == nil || ws != nil {
			b.runBlocks(bs, ws, &sh.stats, sc)
			return
		}
	}
	b.runGraphs(sh.src, w, &sh.stats, sc)
}

// runBlocks is the lane-parallel loop: the source serves transposed
// 64-graph blocks, the protocol's kernel evaluates each one with
// word-parallel ops, and only the per-block fold is scalar. On a weighted
// source each block holds up to 64 class representatives and the fold
// scales each lane by its own orbit weight, so one kernel call settles up
// to 64 whole isomorphism orbits.
func (b *Batch) runBlocks(src BlockSource, ws WeightedBlockSource, st *BatchStats, sc *batchScratch) {
	var w *[lanes.Lanes]uint64
	if ws != nil {
		w = &sc.wts
	}
	for src.NextBlock(&sc.blk) {
		b.vkern(&sc.blk, &sc.bs)
		if ws != nil {
			ws.Weights(w)
		}
		st.foldBlock(&sc.bs, w)
	}
}

// foldBlock merges one kernel result, mirroring the scalar account
// contract exactly: Graphs and TotalBits (and, when the kernel decided,
// Accepted and Rejected) accumulate the weights of the live (accepting)
// lanes; MaxBits and MaxN are per-graph maxima and stay unweighted. A nil
// w weighs every lane 1, so the sums are popcounts — no walk over the live
// bits on unweighted streams, whose kernels may cost O(1) per block. A
// weighted block sums both counts in one branchless pass over its 64
// weights, each masked in by its lane's live and accept bits.
func (s *BatchStats) foldBlock(o *lanes.BlockStats, w *[lanes.Lanes]uint64) {
	var graphs, acc uint64
	if w == nil {
		graphs = uint64(mathbits.OnesCount64(o.Live))
		acc = uint64(mathbits.OnesCount64(o.Accept))
	} else {
		live, accept := o.Live, o.Accept
		for _, x := range w {
			graphs += x & -(live & 1)
			acc += x & -(accept & 1)
			live >>= 1
			accept >>= 1
		}
	}
	s.Graphs += graphs
	s.TotalBits += graphs * o.GraphBits
	if o.MaxBits > s.MaxBits {
		s.MaxBits = o.MaxBits
	}
	if o.MaxN > s.MaxN {
		s.MaxN = o.MaxN
	}
	if o.Decided {
		s.Accepted += acc
		s.Rejected += graphs - acc
	}
}

// runGraphs is the per-graph loop. Each graph's messages land in msgs
// through the fill the batch was built for — the BufferedLocal arena
// (AppendLocalMessage into one reused byte arena: zero allocations per
// graph), the configured scheduler (protocol-allocated messages,
// intra-graph scheduling), or the plain LocalMessage fill — and account
// folds them into st.
func (b *Batch) runGraphs(src Source, w Weighted, st *BatchStats, sc *batchScratch) {
	for g := src.Next(); g != nil; g = src.Next() {
		n := g.N()
		msgs := sc.sized(n)
		switch {
		case b.buffered != nil:
			sc.arena = sc.arena[:0]
			for v := 1; v <= n; v++ {
				sc.nbrs = g.AppendNeighbors(v, sc.nbrs[:0])
				sc.w.Reset()
				b.buffered.AppendLocalMessage(&sc.w, n, v, sc.nbrs)
				msgs[v-1], sc.arena = sc.w.AppendTo(sc.arena)
			}
		case b.opts.Sched != nil:
			b.opts.Sched.Run(g, b.p, msgs)
		default:
			sc.nbrs = fillRange(g, b.p, msgs, 1, n, sc.nbrs)
		}
		b.account(g, weightOf(w), msgs, st, sc)
	}
}

func weightOf(w Weighted) uint64 {
	if w == nil {
		return 1
	}
	return w.Weight()
}

// account folds one evaluated graph into st — the accounting tail of the
// per-graph loop: bit totals, optional referee verdict, optional
// transcript observer. The weight (1 for plain sources, the labelled-orbit
// size for Weighted ones) scales every counter; maxima stay per-graph.
func (b *Batch) account(g *graph.Graph, weight uint64, msgs []bits.String, st *BatchStats, sc *batchScratch) {
	n := g.N()
	st.Graphs += weight
	if n > st.MaxN {
		st.MaxN = n
	}
	var graphBits uint64
	for _, m := range msgs {
		graphBits += uint64(m.Len())
		if m.Len() > st.MaxBits {
			st.MaxBits = m.Len()
		}
	}
	st.TotalBits += weight * graphBits
	if b.decider != nil {
		ans, err := b.decider.Decide(n, msgs)
		switch {
		case err != nil:
			st.Errors += weight
		case ans:
			st.Accepted += weight
		default:
			st.Rejected += weight
		}
	}
	if b.opts.OnTranscript != nil {
		sc.t = Transcript{N: n, Messages: msgs}
		b.opts.OnTranscript(g, &sc.t)
	}
}

// Vectorized reports whether this batch engages the lane-parallel fast path
// for sources that serve blocks.
func (b *Batch) Vectorized() bool { return b.vkern != nil }

// RunBatch runs p over src with a one-shot Batch. For repeated runs build a
// Batch once and reuse it — the scratch reuse is what amortizes to zero
// allocations.
func RunBatch(p Local, src Source, opts BatchOptions) BatchStats {
	b := NewBatch(p, opts)
	defer b.Close()
	return b.Run(src)
}
