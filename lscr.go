// Package lscr answers reachability queries with label and substructure
// constraints (LSCR) on knowledge graphs, implementing the algorithms of
// Wan & Wang, "Reachability Queries with Label and Substructure
// Constraints on Knowledge Graphs" (TKDE / ICDE 2023 extended abstract).
//
// An LSCR query asks: can vertex s reach vertex t along a path whose edge
// labels all belong to a label set L, such that some vertex on the path
// satisfies a substructure constraint S (expressed as a SPARQL SELECT over
// one projected variable)?
//
// Engine.Query is the entry point (v1 API): one context-aware call that
// covers single and conjunctive constraints, witnesses, traces,
// per-request algorithm choice and deadlines.
//
//	kg, _ := lscr.Load(file)                     // N-Triples-style input
//	eng := lscr.NewEngine(kg, lscr.Options{})    // builds the local index
//	resp, _ := eng.Query(ctx, lscr.Request{
//		Source: "SuspectC", Target: "SuspectP",
//		Labels: []string{"transfer2019-04", "married-to"},
//		Constraint: `SELECT ?x WHERE { ?x <married-to> <Amy>. }`,
//	})
//	fmt.Println(resp.Reachable)
//
// Cancelling ctx (or exceeding Request.Timeout) aborts the search
// mid-flight; the hot loops poll every few thousand edge expansions, so
// a cancelled query returns within microseconds of the signal.
//
// Three single-constraint algorithms are available: UIS (uninformed
// search with recall, works on any edge-labeled graph), UISStar
// (SPARQL-assisted uninformed search), and INS (informed search over a
// precomputed local index — the default and the paper's headline
// contribution). Multi-constraint requests run the Conjunctive
// generalisation of UIS.
//
// # Concurrency and live updates
//
// NewEngine builds the local index in parallel across GOMAXPROCS
// goroutines; the result is bit-for-bit identical for every worker
// count. The Engine serves reads through immutable epochs: every query
// resolves against one atomic (graph view, index, constraint cache)
// snapshot, so Query, QueryBatch, Select and SelectAll may be called
// from any number of goroutines on the same Engine. Per-query state
// lives in pooled scratch, so concurrent queries do not contend on
// locks in the search itself.
// QueryBatch answers a slice of requests over a bounded worker pool and
// is the preferred way to saturate all cores with one call.
//
// Engine.Apply commits edge insertions and deletions (plus new-vertex
// and new-label interning) into a small sorted delta overlay and
// publishes a new epoch atomically — in-flight queries keep the epoch
// they started on, so a query never observes half a mutation batch. A
// background compactor folds the overlay into a fresh CSR and rebuilds
// the local index once the overlay exceeds Options.CompactAfter; see
// mutate.go for the full contract.
//
// Within one epoch compiled constraints never go stale: each epoch
// memoizes the parsed constraint and its V(S,G) vertex set in a
// concurrency-safe LRU keyed by constraint text (see
// Options.ConstraintCacheSize and Engine.CacheStats), so repeated
// constraints — the dominant production pattern — compile exactly once
// per epoch. Mutations invalidate the memoized V(S,G) wholesale by
// giving the new epoch a fresh cache.
package lscr

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	core "lscr/internal/lscr"
	"lscr/internal/pattern"
	"lscr/internal/qcache"
	"lscr/internal/rdf"
	"lscr/internal/segment"
	"lscr/internal/sparql"
)

// KG is an immutable knowledge graph.
type KG struct {
	g *graph.Graph
}

// Load reads an N-Triples-style stream (see package documentation for the
// format: `<s> <p> <o> .` per line, quoted literals allowed) into a KG.
func Load(r io.Reader) (*KG, error) {
	g, err := rdf.Load(r)
	if err != nil {
		return nil, err
	}
	return &KG{g: g}, nil
}

// FromGraph wraps an already-built substrate graph. It is the hook the
// generator CLIs and the benchmark harness use.
func FromGraph(g *graph.Graph) *KG { return &KG{g: g} }

// Graph exposes the substrate for advanced callers (generators, harness).
func (kg *KG) Graph() *graph.Graph { return kg.g }

// NumVertices returns |V|.
func (kg *KG) NumVertices() int { return kg.g.NumVertices() }

// NumEdges returns |E|.
func (kg *KG) NumEdges() int { return kg.g.NumEdges() }

// NumLabels returns |ℒ|.
func (kg *KG) NumLabels() int { return kg.g.NumLabels() }

// Dump writes the KG back out as triples.
func (kg *KG) Dump(w io.Writer) error { return rdf.Dump(kg.g, w) }

// Algorithm selects the query strategy.
type Algorithm int

// Available algorithms.
const (
	// INS is the informed, local-index-guided search (Algorithm 4) — the
	// default.
	INS Algorithm = iota
	// UIS is the uninformed baseline (Algorithm 1).
	UIS
	// UISStar is the SPARQL-assisted uninformed search (Algorithm 2).
	UISStar
	// Conjunctive is the generalised uninformed search over
	// satisfied-constraint sets: the path must pass, for every
	// constraint of the request, some vertex satisfying it. It is the
	// only strategy for multi-constraint requests and may be selected
	// explicitly for single-constraint ones.
	Conjunctive
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case INS:
		return "INS"
	case UIS:
		return "UIS"
	case UISStar:
		return "UIS*"
	case Conjunctive:
		return "CONJ"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// DefaultConstraintCacheSize is the constraint-cache capacity selected
// when Options.ConstraintCacheSize is zero.
const DefaultConstraintCacheSize = 1024

// Options configures an Engine.
type Options struct {
	// SkipIndex disables local-index construction; INS queries then
	// return an error, but UIS/UISStar remain available.
	SkipIndex bool
	// Landmarks overrides the paper's k = log2(|V|)·√|V| landmark count.
	Landmarks int
	// IndexSeed drives the landmark selector's random choice among the
	// KG's classes, read off its rdf:type and rdfs:subClassOf edges;
	// fixed seeds give reproducible indexes.
	IndexSeed int64
	// ConstraintCacheSize bounds the number of memoized compiled
	// constraints. Every query pays sparql.Parse + Compile and (for
	// UIS*/INS) the V(S,G) evaluation, so the engine memoizes them per
	// constraint text in a concurrency-safe LRU. The cache belongs to the
	// serving epoch, whose graph view is immutable, so an entry never
	// goes stale; every Apply or compaction publishes a new epoch with an
	// empty cache. 0 selects DefaultConstraintCacheSize; a negative value
	// disables the cache.
	//
	// The bound is an entry count, not bytes: a broad constraint's
	// memoized V(S,G) can hold O(|V|) vertex IDs, so on very large KGs
	// with many distinct broad constraints, size the cache (or disable
	// it) with that worst case — capacity × |V| IDs — in mind.
	ConstraintCacheSize int
	// CompactAfter bounds the mutation overlay: once an Apply leaves at
	// least this many accumulated edge operations uncompacted, a
	// background compaction folds them into a fresh CSR and rebuilds the
	// local index. 0 selects DefaultCompactAfter; a negative value
	// disables automatic compaction (Engine.Compact remains available).
	CompactAfter int
	// DataDir is the default data directory for Open and Create when
	// their dir argument is empty. It has no effect on NewEngine, which
	// stays purely in-memory.
	DataDir string
	// Durability selects the WAL fsync policy of a persistent engine
	// (Open/Create): DurabilitySync — the zero value — fsyncs every
	// committed batch before Apply acknowledges it; DurabilityLazy
	// leaves flushing to the OS, trading the most recent batches on a
	// crash for much cheaper writes. See persist.go.
	Durability Durability
}

// Engine answers LSCR queries over one KG and accepts live mutations.
// Reads resolve against immutable epochs swapped atomically (RCU-style),
// so any number of goroutines may query while Apply commits changes
// (see the package comment's Concurrency section and mutate.go).
type Engine struct {
	opts Options

	// ep is the current epoch; every read path loads it exactly once and
	// works against that snapshot for its whole duration.
	ep atomic.Pointer[epoch]

	// mu serializes epoch publication (Apply and the compactor's swap)
	// and guards sealed and cuts.
	mu sync.Mutex
	// sealed is the fold every published overlay grows from — the epoch
	// the engine was opened at or last sealed to — and cuts[i] is epoch
	// sealed.seq+1+i's place above it, so a logged seal record can fold
	// exactly the prefix it names (see sealLogged in mutate.go).
	sealed sealBase
	cuts   []graph.Cut
	// compactMu serializes whole compactions; compacting dedups the
	// background trigger; compactions counts completed ones.
	compactMu   sync.Mutex
	compacting  atomic.Bool
	compactions atomic.Int64

	// Cumulative index-maintenance counters (see MaintStats). They only
	// grow — per-epoch state (dirty landmarks) lives on the epoch's
	// index.
	maintBatches     atomic.Int64
	maintInvalidated atomic.Int64

	// store is the persistence attachment (segment directory + WAL);
	// nil for a purely in-memory engine. See persist.go.
	store *store

	// pubCh, when non-nil, is closed (and cleared) by the next epoch
	// publish — the wake-up behind the server's /v1/replicate long poll.
	// Lazily armed by EpochPublished; see replicate.go.
	pubCh atomic.Pointer[chan struct{}]

	// replica marks an engine fed exclusively through the replication
	// feed (OpenReplicaSegment): Apply and Compact refuse, and
	// ApplyReplicated drives the epochs instead.
	replica bool

	// poisonp, once set, pins the engine in fail-stop mode: the first
	// WAL/segment write failure is recorded and every later Apply/Compact
	// returns ErrPoisoned while reads keep serving the last published
	// (fully durable) epoch. See poison.go.
	poisonp poisonPointer
}

// epoch is one immutable serving snapshot: a graph view (base CSR plus
// optional overlay), the local index for the view, the SPARQL engine
// over the view, and the constraint cache whose memoized V(S,G) is
// valid exactly for this view. Every commit and seal binds the index to
// the epoch's view (idx.Graph() == kg.g), and readers get the (kg, idx)
// pair from one atomic load, so the pair they see is mutually
// consistent.
type epoch struct {
	seq   uint64
	kg    *KG
	idx   *core.LocalIndex
	eng   *sparql.Engine
	cache *qcache.Cache[*compiledConstraint] // nil when disabled
}

// NewEngine prepares an engine, building the local index unless opts
// disables it. The build runs on GOMAXPROCS goroutines; once it returns
// the engine serves reads lock-free and accepts Apply batches.
func NewEngine(kg *KG, opts Options) *Engine {
	e := &Engine{opts: opts}
	var idx *core.LocalIndex
	if !opts.SkipIndex {
		idx = core.NewLocalIndex(kg.g, e.indexParams())
	}
	e.start(0, kg.g, idx)
	return e
}

// start is every constructor's tail: it stores the engine's first epoch
// — seq 0 for a fresh engine, the segment's base epoch for an opened
// store or replica — as its sealed base, and prewarms the pooled
// per-query scratch for g.
func (e *Engine) start(seq uint64, g *graph.Graph, idx *core.LocalIndex) {
	e.sealed = sealBase{seq: seq, g: g, idx: idx}
	e.ep.Store(e.newEpoch(seq, g, idx))
	prewarmScratch(g)
}

// startSegment starts the engine on a sealed segment image. The
// segment's index build parameters are a property of the store, not of
// this process's Options: they are adopted so compaction rebuilds match
// the sealed index, and the index is rebuilt from them when the segment
// carries none but the engine wants INS. Options.SkipIndex is honoured.
func (e *Engine) startSegment(seg *segment.Segment) {
	var idx *core.LocalIndex
	if !e.opts.SkipIndex {
		e.opts.Landmarks, e.opts.IndexSeed = seg.IndexK, seg.IndexSeed
		idx = seg.Index
		if idx == nil {
			idx = core.NewLocalIndex(seg.Graph, e.indexParams())
		}
	}
	e.start(seg.BaseSeq, seg.Graph, idx)
}

// prewarmVertices is the graph size past which engine construction
// primes the pooled per-query scratch: below it the per-query arrays
// are small enough that first-query allocation is noise.
const prewarmVertices = 1 << 18

// prewarmScratch pre-sizes the pooled per-query scratch for g (one per
// GOMAXPROCS worker) so the first queries on a freshly opened
// multi-million-vertex engine don't each pay a tens-of-megabytes
// close-map/stamp/sat allocation — the first-query latency cliff the
// scale tier measures.
func prewarmScratch(g *graph.Graph) {
	if n := g.NumVertices(); n >= prewarmVertices {
		core.PrewarmScratch(n, runtime.GOMAXPROCS(0))
	}
}

// indexParams maps the engine options to index-build parameters; Apply's
// compactor reuses them so a rebuilt index matches a from-scratch build.
func (e *Engine) indexParams() core.IndexParams {
	return core.IndexParams{K: e.opts.Landmarks, Seed: e.opts.IndexSeed}
}

// newEpoch assembles a serving snapshot for g with a fresh constraint
// cache; idx, when non-nil, is bound to g.
func (e *Engine) newEpoch(seq uint64, g *graph.Graph, idx *core.LocalIndex) *epoch {
	return &epoch{
		seq:   seq,
		kg:    &KG{g: g},
		idx:   idx,
		eng:   sparql.NewEngine(g),
		cache: newConstraintCache(e.opts.ConstraintCacheSize),
	}
}

// current returns the serving epoch.
func (e *Engine) current() *epoch { return e.ep.Load() }

// newConstraintCache maps the ConstraintCacheSize knob to a cache:
// negative disables, zero selects the default capacity.
func newConstraintCache(size int) *qcache.Cache[*compiledConstraint] {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = DefaultConstraintCacheSize
	}
	return qcache.New[*compiledConstraint](size)
}

// CacheStats is a point-in-time snapshot of the constraint cache.
type CacheStats struct {
	// Enabled is false when the engine was built with a negative
	// Options.ConstraintCacheSize; all other fields are then zero.
	Enabled bool `json:"enabled"`
	// Hits and Misses count cache lookups since construction.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Entries is the number of memoized constraints; Capacity the LRU
	// bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// CacheStats reports the current epoch's constraint-cache counters; the
// server's /healthz endpoint surfaces them for operational monitoring.
// Each Apply or compaction starts the new epoch with a fresh cache (its
// memoized V(S,G) sets are only valid for one graph view), so the
// counters reset on mutation.
func (e *Engine) CacheStats() CacheStats {
	return e.current().cacheStats()
}

// MaintStats is a point-in-time snapshot of incremental index
// maintenance (see mutate.go): cumulative counters since construction
// plus the serving epoch's index state. The server's /healthz surfaces
// it next to CacheStats.
type MaintStats struct {
	// Enabled is false when the engine has no index (SkipIndex); the
	// cumulative counters are then zero.
	Enabled bool `json:"enabled"`
	// Batches counts Apply batches whose index was maintained through.
	Batches int64 `json:"batches"`
	// LandmarksInvalidated counts landmarks marked dirty by edge
	// inserts and deletes (cumulative; compactions clear the dirty state
	// but not this counter).
	LandmarksInvalidated int64 `json:"landmarks_invalidated"`
	// DirtyLandmarks is the serving epoch's count of dirty landmarks,
	// those currently excluded from pruning.
	DirtyLandmarks int `json:"dirty_landmarks"`
}

// IndexMaintenance reports the index-maintenance counters for the
// serving epoch. The cumulative counters are monotonic across epochs;
// the per-epoch fields come from one atomic epoch load.
func (e *Engine) IndexMaintenance() MaintStats {
	return e.maintStats(e.current())
}

func (e *Engine) maintStats(ep *epoch) MaintStats {
	ms := MaintStats{
		Enabled:              ep.idx != nil,
		Batches:              e.maintBatches.Load(),
		LandmarksInvalidated: e.maintInvalidated.Load(),
	}
	if ep.idx != nil {
		ms.DirtyLandmarks = ep.idx.DirtyLandmarks()
	}
	return ms
}

func (ep *epoch) cacheStats() CacheStats {
	if ep.cache == nil {
		return CacheStats{}
	}
	st := ep.cache.Stats()
	return CacheStats{
		Enabled:  true,
		Hits:     st.Hits,
		Misses:   st.Misses,
		Entries:  st.Entries,
		Capacity: st.Capacity,
	}
}

// IndexStats describes the built local index. SizeBytes is the sum of
// the four per-structure byte counts.
type IndexStats struct {
	Landmarks int   `json:"landmarks"`
	Entries   int   `json:"entries"`
	SizeBytes int64 `json:"size_bytes"`
	// RegionBytes counts the per-vertex region arrays, IIBytes the
	// in-region label sets, EITBytes the boundary lists and DBytes the
	// sparse rows of D.
	RegionBytes int64 `json:"region_bytes"`
	IIBytes     int64 `json:"ii_bytes"`
	EITBytes    int64 `json:"eit_bytes"`
	DBytes      int64 `json:"d_bytes"`
}

// Index returns statistics about the current epoch's local index, or
// false when the engine was built with SkipIndex. It walks the index's
// entries once: about 0.6 ms on LUBM-10 and 8.5 ms at 5.1M edges on a
// 2-CPU x86 box, which every /healthz probe pays.
func (e *Engine) Index() (IndexStats, bool) {
	ep := e.current()
	if ep.idx == nil {
		return IndexStats{}, false
	}
	fp := ep.idx.Footprint()
	return IndexStats{
		Landmarks:   len(ep.idx.Landmarks()),
		Entries:     fp.Entries,
		SizeBytes:   fp.Total(),
		RegionBytes: fp.Regions,
		IIBytes:     fp.II,
		EITBytes:    fp.EIT,
		DBytes:      fp.D,
	}, true
}

// Stats re-exports the per-query measures.
type Stats = core.Stats

// Errors returned by Query.
var (
	ErrUnknownVertex = errors.New("lscr: unknown vertex name")
	ErrUnknownLabel  = errors.New("lscr: unknown label name")
	ErrNoIndex       = errors.New("lscr: engine built without index; INS unavailable")
	// ErrUnknownAlgorithm marks a Request.Algorithm value outside the
	// defined set.
	ErrUnknownAlgorithm = errors.New("lscr: unknown algorithm")
	// ErrInvalidRequest marks a Request whose fields contradict each
	// other — both Constraint and Constraints set, a constraint count
	// the selected algorithm cannot take, or an option (trace) the
	// selected strategy does not support.
	ErrInvalidRequest = errors.New("lscr: invalid request")
	// ErrNoConstraints and ErrTooManyConstraints bound a conjunctive
	// request's constraint list (1 to MaxConstraints entries).
	ErrNoConstraints      = core.ErrNoConstraints
	ErrTooManyConstraints = core.ErrTooManyConstraints
	// ErrConstraintSyntax is the SPARQL parser's sentinel, re-exported so
	// callers (the HTTP server's status mapping, notably) can classify
	// malformed constraint text with errors.Is instead of string matching.
	ErrConstraintSyntax = sparql.ErrSyntax
	// ErrInvalidConstraint marks a constraint that parses as SPARQL but is
	// not a valid substructure constraint (Definition 2.2) — e.g. the
	// projected focus variable occurs in no triple pattern.
	ErrInvalidConstraint = errors.New("lscr: invalid substructure constraint")
)

// compiledConstraint is one memoized constraint-compilation result: the
// resolved pattern, its matcher, its satisfiability, and — computed
// lazily because UIS never needs it — the V(S,G) vertex set. Entries
// are immutable once published (vs is set exactly once under the
// sync.Once), so a single entry may serve any number of concurrent
// queries.
type compiledConstraint struct {
	cons *pattern.Constraint
	// m is the matcher over cons, built at compile time so evaluation
	// cannot fail later; nil when !sat (there is nothing to match).
	m *pattern.Matcher
	// sat is false when the constraint references entities absent from
	// the KG: V(S,G) is empty by construction and every query answers
	// false without searching.
	sat  bool
	once sync.Once
	vs   []graph.VertexID
}

// vertexSet returns the memoized V(S,G), evaluating it on first use.
// Callers must not mutate the returned slice (the search algorithms only
// read it).
func (cc *compiledConstraint) vertexSet() []graph.VertexID {
	cc.once.Do(func() { cc.vs = cc.m.MatchAll() })
	return cc.vs
}

// compileConstraint is the single query-compile path behind every query
// shape: it parses the constraint text, resolves it against the epoch's
// graph view, validates it, and memoizes the result (keyed by the exact
// constraint text) when the cache is enabled. The cache lives on the
// epoch, whose view is immutable, so entries never go stale; a mutation
// publishes a new epoch with a fresh cache.
func (ep *epoch) compileConstraint(text string) (*compiledConstraint, error) {
	if ep.cache != nil {
		if cc, ok := ep.cache.Get(text); ok {
			return cc, nil
		}
	}
	parsed, err := sparql.Parse(text)
	if err != nil {
		return nil, err
	}
	cons, sat, err := parsed.Compile(ep.kg.g)
	if err != nil {
		// Compile validates the pattern structure (Definition 2.2); its
		// only errors are validation failures on the client's text.
		return nil, classifyConstraintErr(err)
	}
	cc := &compiledConstraint{cons: cons, sat: sat}
	if sat {
		// Building the matcher here (it is just a validation pass plus a
		// wrapper) means V(S,G) evaluation cannot fail at query time.
		cc.m, err = pattern.NewMatcher(ep.kg.g, cons)
		if err != nil {
			return nil, classifyConstraintErr(err)
		}
	}
	if ep.cache != nil {
		// Two goroutines may race to compile the same text; both publish
		// equivalent immutable entries and the second Add wins harmlessly.
		ep.cache.Add(text, cc)
	}
	return cc, nil
}

// classifyConstraintErr tags a SPARQL-layer error with the matching
// exported sentinel so callers (the server's status mapping, notably)
// can classify it with errors.Is: parse failures already carry
// ErrConstraintSyntax; everything else the layer returns is a
// validation failure on the client's query text.
func classifyConstraintErr(err error) error {
	if errors.Is(err, ErrConstraintSyntax) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrInvalidConstraint, err)
}

// resolveLabels maps label names to the compiled label set; empty means
// the whole label universe.
func (ep *epoch) resolveLabels(labels []string) (labelset.Set, error) {
	g := ep.kg.g
	if len(labels) == 0 {
		return g.LabelUniverse(), nil
	}
	var L labelset.Set
	for _, name := range labels {
		l, ok := g.LabelByName(name)
		if !ok {
			return L, fmt.Errorf("%w: %q", ErrUnknownLabel, name)
		}
		L = L.Add(l)
	}
	return L, nil
}

// resolveEndpoints maps the query's vertex and label names to IDs — the
// name-resolution half of the compile path.
func (ep *epoch) resolveEndpoints(source, target string, labels []string) (core.Query, error) {
	g := ep.kg.g
	s := g.Vertex(source)
	if s == graph.NoVertex {
		return core.Query{}, fmt.Errorf("%w: %q", ErrUnknownVertex, source)
	}
	t := g.Vertex(target)
	if t == graph.NoVertex {
		return core.Query{}, fmt.Errorf("%w: %q", ErrUnknownVertex, target)
	}
	L, err := ep.resolveLabels(labels)
	if err != nil {
		return core.Query{}, err
	}
	return core.Query{Source: s, Target: t, Labels: L}, nil
}

// Select evaluates a SPARQL SELECT and returns the matching vertex names
// (V(S,G) by name) — the substructure-constraint half of the system,
// usable standalone. Multi-variable queries project their first variable;
// use SelectAll for full rows.
func (e *Engine) Select(query string) ([]string, error) {
	ep := e.current()
	ids, err := ep.eng.Select(query)
	if err != nil {
		return nil, classifyConstraintErr(err)
	}
	out := make([]string, len(ids))
	for i, v := range ids {
		out[i] = ep.kg.g.VertexName(v)
	}
	return out, nil
}

// SelectAll evaluates a (possibly multi-variable) SPARQL SELECT and
// returns one map per distinct result row, keyed by variable name.
func (e *Engine) SelectAll(query string) ([]map[string]string, error) {
	ep := e.current()
	vars, rows, err := ep.eng.SelectTuples(query)
	if err != nil {
		return nil, classifyConstraintErr(err)
	}
	out := make([]map[string]string, 0, len(rows))
	for _, r := range rows {
		m := make(map[string]string, len(vars))
		for i, v := range vars {
			m[v] = ep.kg.g.VertexName(r[i])
		}
		out = append(out, m)
	}
	return out, nil
}
