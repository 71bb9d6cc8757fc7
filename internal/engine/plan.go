package engine

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// This file is the *plan* stage of the batch pipeline. A sweep over a large
// graph space is described before it is executed: a Plan is an ordered list
// of ShardSpecs, each naming a protocol (by registry name), a scheduler (by
// scheduler name), and a source of graphs (by source-kind name plus
// parameters). Every field is data, not code, so plans serialize to JSON and
// cross process or machine boundaries — the sweep coordinator in
// internal/sweep hands single ShardSpecs to in-process slots or remote serve
// daemons, which turn them back into running batches via ExecuteShard.
//
// The *execute* stage is ExecuteShard below plus the source-kind registry:
// packages that own source constructors (internal/collide for Gray-code rank
// ranges, internal/gen for generated family corpora) register resolvers from
// package init, mirroring the protocol registry.
//
// The *merge* stage is BatchStats.Merge (batch.go): commutative and
// associative, so shard results combine in any completion order.

// SourceSpec names a graph stream declaratively. Kind selects a registered
// resolver; the remaining fields parameterize it and are interpreted by the
// resolver (unused fields are ignored).
type SourceSpec struct {
	// Kind is the resolver registry key: "gray" (internal/collide, the
	// labelled-graph Gray-code enumeration of ranks [Lo, Hi)), "family"
	// (internal/gen, Count graphs drawn from the named ByName family), or
	// "file" (internal/corpus, word-packed edge masks read from Path).
	Kind string `json:"kind"`
	// N is the graph size.
	N int `json:"n,omitempty"`
	// Lo and Hi bound a rank range for range-shaped kinds ("gray"). For a
	// full sweep use Lo = 0, Hi = 2^C(n,2).
	Lo uint64 `json:"lo,omitempty"`
	Hi uint64 `json:"hi,omitempty"`
	// Family, Count, K, P and Seed parameterize corpus-shaped kinds
	// ("family"): Count graphs from gen.ByName(Family, N, K, P) drawn from a
	// deterministic stream seeded with Seed.
	Family string  `json:"family,omitempty"`
	Count  int     `json:"count,omitempty"`
	K      int     `json:"k,omitempty"`
	P      float64 `json:"p,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	// Path locates disk-backed kinds ("file", internal/corpus: word-packed
	// edge masks, records [Lo, Hi)). Workers resolve it on their own
	// filesystem, so a cross-machine sweep needs the corpus at the same path
	// everywhere (shared mount or a copy).
	Path string `json:"path,omitempty"`
}

// ShardSpec is one unit of planned work: run Protocol over the graphs of
// Source. It is the JSON-lines payload the sweep coordinator sends to worker
// processes.
type ShardSpec struct {
	// Protocol is a protocol registry name (see Names).
	Protocol string `json:"protocol"`
	// Sched is a scheduler name for the per-graph local phase; "" or
	// "serial" selects the worker's in-place loop, which is the
	// allocation-free fast path.
	Sched string `json:"sched,omitempty"`
	// Config parameterizes the protocol instance.
	Config Config `json:"config,omitempty"`
	// Decide runs the referee's global function on every transcript.
	Decide bool `json:"decide,omitempty"`
	// Source names the graph stream.
	Source SourceSpec `json:"source"`
}

// Plan is the serializable output of the plan stage: shard specs that
// together cover one sweep. Executing every shard and merging the stats is
// equivalent to one monolithic run over the union of the sources.
type Plan struct {
	Shards []ShardSpec `json:"shards"`
}

// SourceResolver turns a SourceSpec into a live Source. Resolvers must
// validate the spec and return an error rather than panic: specs cross
// process boundaries and may be malformed.
type SourceResolver func(spec SourceSpec) (Source, error)

var sourceRegistry struct {
	sync.Mutex
	byKind map[string]SourceResolver
}

// RegisterSource adds a source kind to the global resolver registry. Like
// protocol Register it panics on empty or duplicate kinds: registrations
// happen in package init functions.
func RegisterSource(kind string, resolve SourceResolver) {
	if kind == "" || resolve == nil {
		panic("engine: RegisterSource requires a kind and a resolver")
	}
	sourceRegistry.Lock()
	defer sourceRegistry.Unlock()
	if sourceRegistry.byKind == nil {
		sourceRegistry.byKind = make(map[string]SourceResolver)
	}
	if _, dup := sourceRegistry.byKind[kind]; dup {
		panic(fmt.Sprintf("engine: source kind %q registered twice", kind))
	}
	sourceRegistry.byKind[kind] = resolve
}

// ResolveSource builds the Source a spec names. Which kinds resolve depends
// on which packages the binary links in, exactly as with protocols.
func ResolveSource(spec SourceSpec) (Source, error) {
	sourceRegistry.Lock()
	resolve, ok := sourceRegistry.byKind[spec.Kind]
	sourceRegistry.Unlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown source kind %q (known: %v)", spec.Kind, SourceKinds())
	}
	return resolve(spec)
}

// SourceKinds returns every registered source kind, sorted.
func SourceKinds() []string {
	sourceRegistry.Lock()
	defer sourceRegistry.Unlock()
	kinds := make([]string, 0, len(sourceRegistry.byKind))
	for kind := range sourceRegistry.byKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	return kinds
}

// SourceSplitter cuts a SourceSpec into disjoint sub-specs whose union is
// exactly the original stream — the hook that lets an executor parallelize
// INSIDE one shard (`refereesim serve -parallel`). Returning ok = false
// declines: the spec is unsplittable (a seeded generator stream whose
// per-shard seeds would change the stats) or malformed (resolution will
// produce the error, where it can be reported). Splitters must never panic
// and must preserve merge-exactness: executing the sub-specs and merging
// their BatchStats must be byte-identical to executing the original.
type SourceSplitter func(spec SourceSpec, parts int) (subs []SourceSpec, ok bool)

var splitterRegistry struct {
	sync.Mutex
	byKind map[string]SourceSplitter
}

// RegisterSourceSplitter adds a splitter for a source kind. Like the other
// registries it panics on empty or duplicate kinds: registrations happen in
// package init functions. Kinds without a splitter simply run unsplit.
func RegisterSourceSplitter(kind string, split SourceSplitter) {
	if kind == "" || split == nil {
		panic("engine: RegisterSourceSplitter requires a kind and a splitter")
	}
	splitterRegistry.Lock()
	defer splitterRegistry.Unlock()
	if splitterRegistry.byKind == nil {
		splitterRegistry.byKind = make(map[string]SourceSplitter)
	}
	if _, dup := splitterRegistry.byKind[kind]; dup {
		panic(fmt.Sprintf("engine: source splitter %q registered twice", kind))
	}
	splitterRegistry.byKind[kind] = split
}

// SourceSplitterKinds returns every source kind with a registered splitter,
// sorted. The conformance suite diffs this against its covered-kind list so a
// splitter cannot land without round-trip coverage.
func SourceSplitterKinds() []string {
	splitterRegistry.Lock()
	defer splitterRegistry.Unlock()
	kinds := make([]string, 0, len(splitterRegistry.byKind))
	for kind := range splitterRegistry.byKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	return kinds
}

// SplitShard cuts one shard spec into at most parts sub-shards covering the
// same stream, by splitting its source through the kind's registered
// splitter. Specs whose kind has no splitter, that decline to split, or with
// parts < 2 come back as a one-element slice holding the original — callers
// can always execute whatever SplitShard returns and merge.
func SplitShard(spec ShardSpec, parts int) []ShardSpec {
	if parts < 2 {
		return []ShardSpec{spec}
	}
	splitterRegistry.Lock()
	split, ok := splitterRegistry.byKind[spec.Source.Kind]
	splitterRegistry.Unlock()
	if !ok {
		return []ShardSpec{spec}
	}
	subs, ok := split(spec.Source, parts)
	if !ok || len(subs) == 0 {
		return []ShardSpec{spec}
	}
	out := make([]ShardSpec, len(subs))
	for i, src := range subs {
		out[i] = spec
		out[i].Source = src
	}
	return out
}

// SplitSourceRange cuts spec's rank bounds [lo, hi) into at most parts
// sub-specs differing only in Lo and Hi — the shared shape of every
// range-backed splitter ("gray", "file"), so their chunking cannot drift
// apart. It declines (ok = false) when the range yields fewer than two
// chunks, leaving the caller's spec to run unsplit.
func SplitSourceRange(spec SourceSpec, lo, hi uint64, parts int) ([]SourceSpec, bool) {
	ranges := SplitRange(lo, hi, parts)
	if len(ranges) < 2 {
		return nil, false
	}
	subs := make([]SourceSpec, len(ranges))
	for i, r := range ranges {
		subs[i] = spec
		subs[i].Lo, subs[i].Hi = r[0], r[1]
	}
	return subs, true
}

// SplitRange cuts [lo, hi) into at most units contiguous chunks: floor-sized,
// with the last chunk absorbing the remainder, and the chunk count clamped to
// the range size so no chunk is empty. This exact shape is load-bearing — the
// sweep planner's emitted bounds land in plan fingerprints, so changing the
// distribution would strand every existing manifest. At the n = 9 ceiling
// ranges span [0, 2^36); all arithmetic here is uint64 and overflow-free for
// any bounds below 2^63.
func SplitRange(lo, hi uint64, units int) [][2]uint64 {
	total := hi - lo
	if units < 1 {
		units = 1
	}
	if uint64(units) > total {
		units = int(total)
	}
	if total == 0 {
		return nil
	}
	chunk := total / uint64(units)
	out := make([][2]uint64, units)
	for i := range out {
		out[i] = [2]uint64{lo + uint64(i)*chunk, lo + uint64(i+1)*chunk}
	}
	out[units-1][1] = hi
	return out
}

// ExecuteShard is the execute stage: it resolves a ShardSpec's protocol,
// scheduler and source against the registries and streams the source through
// a one-shot Batch on the calling goroutine (process-level parallelism is
// the sweep coordinator's job, so each shard itself runs single-worker and —
// for BufferedLocal protocols under the serial scheduler — allocation-free).
func ExecuteShard(spec ShardSpec) (BatchStats, error) {
	if spec.Config.K < 0 {
		// Registrations read K ≤ 0 as their default, so a negative K would
		// run the k = 0 sweep under a plan that fingerprints apart from it.
		return BatchStats{}, fmt.Errorf("engine: negative k %d", spec.Config.K)
	}
	p, ok := New(spec.Protocol, spec.Config)
	if !ok {
		return BatchStats{}, fmt.Errorf("engine: unknown protocol %q", spec.Protocol)
	}
	opts := BatchOptions{Workers: 1, Decide: spec.Decide, MaxN: spec.Config.N}
	if spec.Source.N > opts.MaxN {
		opts.MaxN = spec.Source.N
	}
	if spec.Sched != "" && spec.Sched != "serial" {
		s, ok := SchedulerByName(spec.Sched)
		if !ok {
			return BatchStats{}, fmt.Errorf("engine: unknown scheduler %q", spec.Sched)
		}
		opts.Sched = s
	}
	src, err := ResolveSource(spec.Source)
	if err != nil {
		return BatchStats{}, err
	}
	if c, ok := src.(io.Closer); ok {
		// Closeable sources (the disk corpus) self-close at exhaustion, but
		// a protocol panic mid-stream unwinds through here — and in a
		// long-lived serve daemon that converts panics into unit errors,
		// leaking one descriptor per poisoned unit would eventually starve
		// every sweep the daemon serves. Close is idempotent for such
		// sources.
		defer c.Close()
	}
	st := RunBatch(p, src, opts)
	if e, ok := src.(Erring); ok {
		// A source that died mid-stream (truncated corpus, corrupt record)
		// ends the stream early instead of panicking; its stats are partial
		// and must not merge into anyone's totals.
		if err := e.Err(); err != nil {
			return BatchStats{}, err
		}
	}
	return st, nil
}
