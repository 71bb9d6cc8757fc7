package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"refereenet/internal/bits"
	"refereenet/internal/graph"
)

// Scheduler lays the n evaluations of the local function onto goroutines.
// Run must store the message of node v at msgs[v-1] for every v in 1..g.N();
// because the local function is pure and messages are indexed by sender, all
// schedulers produce identical message vectors.
type Scheduler interface {
	Name() string
	Run(g *graph.Graph, p Local, msgs []bits.String)
}

// Serial evaluates nodes 1..n in order on the calling goroutine. It is the
// reference scheduler (and the fastest one for small graphs, where goroutine
// handoff dwarfs the local computation).
type Serial struct{}

// Name implements Scheduler.
func (Serial) Name() string { return "serial" }

// Run implements Scheduler.
func (Serial) Run(g *graph.Graph, p Local, msgs []bits.String) {
	nbrs := getNbrs(g.N())
	nbrs.buf = fillRange(g, p, msgs, 1, g.N(), nbrs.buf)
	putNbrs(nbrs)
}

// Chunked fans the local phase out over a worker pool in contiguous node
// chunks — one goroutine per worker rather than per node, so the dispatch
// cost is O(workers), not O(n). Workers ≤ 0 means one per CPU.
type Chunked struct{ Workers int }

// Name implements Scheduler.
func (Chunked) Name() string { return "chunked" }

// Run implements Scheduler.
func (c Chunked) Run(g *graph.Graph, p Local, msgs []bits.String) {
	n := g.N()
	workers := clampWorkers(c.Workers, n)
	if workers == 1 {
		Serial{}.Run(g, p, msgs)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 1; lo <= n; lo += chunk {
		hi := lo + chunk - 1
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			nbrs := getNbrs(n)
			nbrs.buf = fillRange(g, p, msgs, lo, hi, nbrs.buf)
			putNbrs(nbrs)
		}(lo, hi)
	}
	wg.Wait()
}

// Async models the paper's asynchrony remark — the referee needs no delivery
// order because it knows n and indexes messages by sender — by evaluating
// nodes in a shuffled delivery schedule. A seeded permutation of 1..n is
// split into contiguous chunks over the same worker pool as Chunked, so
// arbitrary delivery order costs no goroutine-per-node and no per-node
// neighbor allocation (the treatment ROADMAP promised the old
// goroutine-per-node implementation).
//
// Seed 0 draws a fresh schedule per run (distinct executions see distinct
// delivery orders, like a real asynchronous network); a nonzero Seed fixes
// the schedule for reproducibility. Either way the transcript is identical.
type Async struct {
	Seed    int64
	Workers int
}

// Name implements Scheduler.
func (Async) Name() string { return "async" }

// asyncCounter differentiates the delivery schedules of Seed-0 runs.
var asyncCounter atomic.Uint64

// Run implements Scheduler.
func (a Async) Run(g *graph.Graph, p Local, msgs []bits.String) {
	n := g.N()
	perm := getPerm(n)
	order := perm.buf[:n]
	for i := range order {
		order[i] = i + 1
	}
	seed := uint64(a.Seed)
	if seed == 0 {
		seed = asyncCounter.Add(0x9e3779b97f4a7c15)
	}
	// Fisher–Yates with an inline splitmix64: no math/rand state to allocate.
	for i := n - 1; i > 0; i-- {
		j := int(splitmix64(&seed) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	workers := clampWorkers(a.Workers, n)
	if workers == 1 {
		nbrs := getNbrs(n)
		nbrs.buf = fillOrder(g, p, msgs, order, nbrs.buf)
		putNbrs(nbrs)
	} else {
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(part []int) {
				defer wg.Done()
				nbrs := getNbrs(n)
				nbrs.buf = fillOrder(g, p, msgs, part, nbrs.buf)
				putNbrs(nbrs)
			}(order[lo:hi])
		}
		wg.Wait()
	}
	putPerm(perm)
}

// fillOrder evaluates p at the given nodes, in the given delivery order.
func fillOrder(g *graph.Graph, p Local, msgs []bits.String, order []int, nbrs []int) []int {
	n := g.N()
	for _, v := range order {
		nbrs = g.AppendNeighbors(v, nbrs[:0])
		msgs[v-1] = p.LocalMessage(n, v, nbrs)
	}
	return nbrs
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func clampWorkers(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SchedulerByName resolves the -sched flag vocabulary of the cmd tools.
// "sequential" and "parallel" are accepted as aliases of "serial" and
// "chunked".
func SchedulerByName(name string) (Scheduler, bool) {
	switch name {
	case "serial", "sequential":
		return Serial{}, true
	case "chunked", "parallel":
		return Chunked{}, true
	case "async":
		return Async{}, true
	}
	return nil, false
}

// SchedulerNames lists the canonical scheduler names, for usage strings.
func SchedulerNames() []string { return []string{"serial", "chunked", "async"} }

// Pooled scratch shared by every scheduler: neighbor buffers and delivery
// permutations are the only per-run state, and both come from sync.Pools so
// steady-state runs allocate nothing beyond the transcript itself.

type intBuf struct{ buf []int }

var nbrsPool = sync.Pool{New: func() interface{} { return &intBuf{buf: make([]int, 0, 64)} }}

func getNbrs(n int) *intBuf {
	b := nbrsPool.Get().(*intBuf)
	if cap(b.buf) < n {
		b.buf = make([]int, 0, n)
	}
	return b
}

func putNbrs(b *intBuf) {
	b.buf = b.buf[:0]
	nbrsPool.Put(b)
}

var permPool = sync.Pool{New: func() interface{} { return &intBuf{buf: make([]int, 0, 64)} }}

func getPerm(n int) *intBuf {
	b := permPool.Get().(*intBuf)
	if cap(b.buf) < n {
		b.buf = make([]int, n)
	}
	b.buf = b.buf[:cap(b.buf)]
	return b
}

func putPerm(b *intBuf) { permPool.Put(b) }
