package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"time"

	"refereenet/internal/canon"
	"refereenet/internal/engine"
	"refereenet/internal/sweep"
)

// sizes fixes every workload's input sizes. The benchmark always runs
// fullSizes; the smoke test shrinks them so that all six workloads finish in
// a few seconds without a reference cache.
type sizes struct {
	grayN9Piece  uint64 // ranks per gray-n9 piece
	grayN9Units  int    // pieces per gray-n9 op, one unit each
	canonN       int
	scalarN      int
	scalarPiece  uint64 // ranks per oracle-diam3 piece
	scalarPieces int    // pieces per oracle-diam3 op, one unit each
	famN         int
	famCount     int
	unitsN       int
	unitsMin     int // units per units-n6 op, drawn from [unitsMin, unitsMax]
	unitsMax     int
	svc          serviceSizes
}

func fullSizes() sizes {
	return sizes{
		grayN9Piece:  1 << 19,
		grayN9Units:  8,
		canonN:       9,
		scalarN:      7,
		scalarPiece:  1 << 11,
		scalarPieces: 8,
		famN:         64,
		famCount:     256,
		unitsN:       6,
		unitsMin:     128,
		unitsMax:     512,
		svc: serviceSizes{
			grayN: 7, winLogMin: 16, winLogMax: 20, canonN: 6,
			rate: serviceRate, sloLimit: serviceSLO, hotPlans: 16, hotShare: 0.8,
		},
	}
}

// slots is the worker-slot count of every sweep and the number of cores the
// benchmark is sized for (GOMAXPROCS).
const slots = 2

// windowsPerSeed is how many distinct window sets a seed draws for the
// windowed workloads; each op sweeps one of them.
const windowsPerSeed = 16

// opRand is the deterministic random stream of op i (any int, warm-up ops
// are negative) under seed: the same (seed, i) always yields the same op.
func opRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ splitmix(uint64(i)+0x1234567)))))
}

// seedRand is the stream a seed's fixed inputs (windows, hot plans) come from.
func seedRand(seed int64, what string) *rand.Rand {
	h := uint64(seed)
	for _, c := range what {
		h = splitmix(h ^ uint64(c))
	}
	return rand.New(rand.NewSource(int64(splitmix(h))))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stratifiedSets draws windowsPerSeed sets of pieces windows of size ranks
// each from the Gray-rank space [0, total), aligned to size. The space is cut
// into windowsPerSeed × pieces equal strata and piece j of set k comes from
// stratum j·windowsPerSeed + k, so every set samples the whole space evenly.
// What a graph costs to evaluate depends on where its rank lies — the fixed
// high edges make a window dense or sparse, and oracle-forest's cost varies
// 3× across the n = 9 space — so a set costs about the same whatever the
// seed, and so does every op.
func stratifiedSets(rng *rand.Rand, total, size uint64, pieces int) [][][2]uint64 {
	strata := uint64(windowsPerSeed * pieces)
	per := total / size / strata
	out := make([][][2]uint64, windowsPerSeed)
	for k := range out {
		for j := 0; j < pieces; j++ {
			s := uint64(j*windowsPerSeed + k)
			slot := s*per + uint64(rng.Int63n(int64(per)))
			out[k] = append(out[k], [2]uint64{slot * size, (slot + 1) * size})
		}
	}
	return out
}

// flatten lists the windows of every set, set by set.
func flatten(sets [][][2]uint64) [][2]uint64 {
	var out [][2]uint64
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

// sweepOp is one op of a sweep workload: a plan plus what the answer is
// checked against.
type sweepOp struct {
	Protocol string
	Decide   bool
	Kind     string // source kind: gray, canon or family
	N        int
	Windows  [][2]uint64 // gray: the rank windows
	Lo, Hi   uint64      // canon: the class range
	Count    int         // family graphs
	Plan     engine.Plan
}

// graphs is the number of labelled graphs the op's answer covers.
func (o sweepOp) graphs() uint64 {
	switch o.Kind {
	case "canon":
		return allGraphs(o.N)
	case "family":
		return uint64(o.Count)
	}
	g := uint64(0)
	for _, w := range o.Windows {
		g += w[1] - w[0]
	}
	return g
}

// messageBits is each protocol's per-node message width as its definition
// fixes it: oracles ship an n-bit adjacency row, hash16 a 16-bit hash, and
// degeneracy (K) two ⌈log₂(n+1)⌉-bit fields plus the power sums Σ w^q,
// q = 1..K, each in bitlen(n^(q+1)) bits.
func messageBits(protocol string, n int) uint64 {
	switch protocol {
	case "hash16":
		return 16
	case "degeneracy":
		total := 2 * uint64(bits.Len64(uint64(n)))
		for q := 1; q <= degeneracyK; q++ {
			p := uint64(1)
			for i := 0; i <= q; i++ {
				p *= uint64(n)
			}
			total += uint64(bits.Len64(p))
		}
		return total
	}
	return uint64(n) // oracle-*
}

const degeneracyK = 3

// expected is the exact BatchStats the op must return, given the number of
// accepted graphs from the workload's truth.
func (o sweepOp) expected(accepted uint64) engine.BatchStats {
	g := o.graphs()
	w := messageBits(o.Protocol, o.N)
	st := engine.BatchStats{Graphs: g, TotalBits: g * uint64(o.N) * w, MaxBits: int(w), MaxN: o.N}
	if o.Decide {
		st.Accepted, st.Rejected = accepted, g-accepted
	}
	return st
}

// sweepWorkload is a closed-loop workload: one client runs one sweep.Run
// after another over its rig's transport.
type sweepWorkload struct {
	name string
	// prepare runs in set-up: it starts whatever the ops need.
	prepare func(w *sweepWorkload, r *rig) error
	// op builds op i of seed.
	op func(w *sweepWorkload, seed int64, i int) sweepOp
	// truth returns each op's accepted count; it runs after timing.
	truth func(w *sweepWorkload, seed int64) (func(sweepOp) (uint64, error), error)

	sz      sizes
	dir     string
	classes uint64 // canon table size, known after prepare
}

// rig is what set-up leaves running for a sweep workload's ops.
type rig struct {
	opts       sweep.Options   // untraced runs
	transport  sweep.Transport // the same coupling, for the recording decorator
	exec       *sweep.Executor // the daemon's shared pool (TCP); nil in-process
	classBuild time.Duration   // first canon.ClassCount (canon-n9)
	close      func()
}

func localRig(r *rig) {
	r.opts = sweep.Options{Workers: slots}
	r.transport = sweep.InProcess{}
}

// tcpRig starts an in-process `serve -parallel 2` daemon: sweep.Serve on a
// loopback listener with a shared 2-worker Executor. Every op dials it
// twice, one connection per slot.
func tcpRig(r *rig) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	exec := sweep.NewExecutor(slots)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sweep.Serve(l, sweep.ServeOptions{Executor: exec, Context: ctx}) }()
	addr := l.Addr().String()
	r.exec = exec
	r.opts = sweep.Options{Dial: []string{addr, addr}}
	r.transport = &sweep.TCP{Addrs: []string{addr, addr}, Breaker: sweep.NewBreaker(5, 0)}
	r.close = func() {
		cancel()
		<-done
		exec.Close()
	}
	return nil
}

func (w *sweepWorkload) grayN9Sets(seed int64) [][][2]uint64 {
	return stratifiedSets(seedRand(seed, "gray-n9"), allGraphs(9), w.sz.grayN9Piece, w.sz.grayN9Units)
}

func (w *sweepWorkload) scalarSets(seed int64) [][][2]uint64 {
	return stratifiedSets(seedRand(seed, "scalar-mix"), allGraphs(w.sz.scalarN), w.sz.scalarPiece, w.sz.scalarPieces)
}

// grayOp builds a plan over the Gray-rank windows, each split by
// SplitGrayRanks into unitsPerWindow units.
func grayOp(protocol string, decide bool, n int, windows [][2]uint64, unitsPerWindow int) sweepOp {
	spec := engine.ShardSpec{Protocol: protocol, Decide: decide}
	var plan engine.Plan
	for _, win := range windows {
		p, err := sweep.SplitGrayRanks(spec, n, win[0], win[1], unitsPerWindow)
		if err != nil {
			panic(err) // windows are built inside the rank space
		}
		plan.Shards = append(plan.Shards, p.Shards...)
	}
	return sweepOp{Protocol: protocol, Decide: decide, Kind: "gray", N: n, Windows: windows, Plan: plan}
}

// windowSum adds up a per-window count over an op's windows; count reports
// false for a window it has no entry for.
func windowSum(o sweepOp, count func(win [2]uint64) (uint64, bool)) (uint64, error) {
	sum := uint64(0)
	for _, win := range o.Windows {
		c, ok := count(win)
		if !ok {
			return 0, fmt.Errorf("no reference for window [%d,%d)", win[0], win[1])
		}
		sum += c
	}
	return sum, nil
}

var grayN9Protocols = []struct {
	name   string
	decide bool
}{{"oracle-conn", true}, {"oracle-forest", true}, {"hash16", false}}

func newSweepWorkloads(sz sizes, dir string) map[string]*sweepWorkload {
	ws := map[string]*sweepWorkload{
		"gray-n9": {
			prepare: func(w *sweepWorkload, r *rig) error { localRig(r); return nil },
			op: func(w *sweepWorkload, seed int64, i int) sweepOp {
				rng := opRand(seed, i)
				set := w.grayN9Sets(seed)[rng.Intn(windowsPerSeed)]
				p := grayN9Protocols[mod(i, len(grayN9Protocols))]
				return grayOp(p.name, p.decide, 9, set, 1)
			},
			truth: func(w *sweepWorkload, seed int64) (func(sweepOp) (uint64, error), error) {
				refs, err := grayN9Refs(w.dir, seed, flatten(w.grayN9Sets(seed)))
				if err != nil {
					return nil, err
				}
				byWin := map[[2]uint64]windowRef{}
				for _, r := range refs {
					byWin[[2]uint64{r.Lo, r.Hi}] = r
				}
				return func(o sweepOp) (uint64, error) {
					return windowSum(o, func(win [2]uint64) (uint64, bool) {
						r, ok := byWin[win]
						if o.Protocol == "oracle-forest" {
							return r.Forests, ok
						}
						return r.Connected, ok
					})
				}, nil
			},
		},
		"canon-n9": {
			prepare: func(w *sweepWorkload, r *rig) error {
				localRig(r)
				start := time.Now()
				total, err := canon.ClassCount(w.sz.canonN)
				r.classBuild = time.Since(start)
				w.classes = total
				return err
			},
			// Two ops in three are oracle-conn: with an even mix of two op
			// costs the median sits on the boundary between them and swings
			// with either side's tail.
			op: func(w *sweepWorkload, seed int64, i int) sweepOp {
				rng := opRand(seed, i)
				protocol := "oracle-conn"
				if mod(i, 3) == 2 {
					protocol = "oracle-forest"
				}
				units := 8 + rng.Intn(25)
				n := w.sz.canonN
				plan, err := sweep.SplitClasses(engine.ShardSpec{Protocol: protocol, Decide: true}, n, 0, 0, w.classes, units)
				if err != nil {
					panic(err)
				}
				return sweepOp{Protocol: protocol, Decide: true, Kind: "canon", N: n, Lo: 0, Hi: w.classes, Plan: plan}
			},
			truth: func(w *sweepWorkload, seed int64) (func(sweepOp) (uint64, error), error) {
				return func(o sweepOp) (uint64, error) {
					if o.Protocol == "oracle-forest" {
						return labelledForests(o.N), nil
					}
					return connectedLabelled(o.N), nil
				}, nil
			},
		},
		"scalar-mix": {
			prepare: func(w *sweepWorkload, r *rig) error { localRig(r); return nil },
			// Two ops in three are oracle-diam3, for the same reason as
			// canon-n9's mix.
			op: func(w *sweepWorkload, seed int64, i int) sweepOp {
				rng := opRand(seed, i)
				if mod(i, 3) != 2 {
					set := w.scalarSets(seed)[rng.Intn(windowsPerSeed)]
					return grayOp("oracle-diam3", true, w.sz.scalarN, set, 1)
				}
				units := 2 + rng.Intn(7)
				famSeed := seedRand(seed, "ktree").Int63n(1<<40) + int64(rng.Intn(windowsPerSeed))*1000
				shard := engine.ShardSpec{Protocol: "degeneracy", Config: engine.Config{N: w.sz.famN, K: degeneracyK}}
				plan, err := sweep.SplitFamily(shard, "ktree", w.sz.famN, degeneracyK, 0, famSeed, w.sz.famCount, units)
				if err != nil {
					panic(err)
				}
				return sweepOp{Protocol: "degeneracy", Kind: "family", N: w.sz.famN, Count: w.sz.famCount, Plan: plan}
			},
			truth: func(w *sweepWorkload, seed int64) (func(sweepOp) (uint64, error), error) {
				counts := map[[2]uint64]uint64{}
				for _, win := range flatten(w.scalarSets(seed)) {
					counts[win] = countDiameterAtMost(w.sz.scalarN, win[0], win[1], 3)
				}
				return func(o sweepOp) (uint64, error) {
					if o.Kind == "family" {
						return 0, nil // degeneracy ops reconstruct; they decide nothing
					}
					return windowSum(o, func(win [2]uint64) (uint64, bool) { c, ok := counts[win]; return c, ok })
				}, nil
			},
		},
	}
	unitsOp := func(w *sweepWorkload, seed int64, i int) sweepOp {
		rng := opRand(seed, i)
		units := w.sz.unitsMin + rng.Intn(w.sz.unitsMax-w.sz.unitsMin+1)
		n := w.sz.unitsN
		space := [][2]uint64{{0, allGraphs(n)}}
		if mod(i, 2) == 0 {
			return grayOp("hash16", false, n, space, units)
		}
		return grayOp("oracle-conn", true, n, space, units)
	}
	unitsTruth := func(w *sweepWorkload, seed int64) (func(sweepOp) (uint64, error), error) {
		return func(o sweepOp) (uint64, error) { return connectedLabelled(o.N), nil }, nil
	}
	ws["units-n6-local"] = &sweepWorkload{
		prepare: func(w *sweepWorkload, r *rig) error { localRig(r); return nil },
		op:      unitsOp,
		truth:   unitsTruth,
	}
	ws["units-n6-tcp"] = &sweepWorkload{
		prepare: func(w *sweepWorkload, r *rig) error { return tcpRig(r) },
		op:      unitsOp,
		truth:   unitsTruth,
	}
	for name, w := range ws {
		w.name, w.sz, w.dir = name, sz, dir
	}
	return ws
}

func mod(i, m int) int { return ((i % m) + m) % m }
