package lscr

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"lscr/internal/graph"
	"lscr/internal/labelset"
	"lscr/internal/rdf"
)

// LocalIndex is the paper's lightweight index (Algorithm 3, §5.1). Unlike
// the traditional landmark index of [19], each landmark u is precomputed
// only within its own subgraph F(u) of the bijection F: I -> G built by a
// simultaneous multi-source BFS, which bounds the indexing cost
// (Theorems 5.3 and 5.4) independently of the number of landmarks.
//
// One index entry per landmark u consists of:
//
//	II[u]  — (vertex v in F(u)) -> M(u, v | F(u)), the CMS within F(u);
//	EIT[u] — (label set L) -> boundary vertices w outside F(u) known to be
//	         reachable from u whenever L ⊆ the query constraint
//	         (Theorem 5.1); the reversed form of EI[u];
//	D[u]   — (landmark x) -> number of EI[u] boundary pairs landing in
//	         F(x), an estimate of how strongly F(u) connects to F(x).
//
// A LocalIndex is immutable once NewLocalIndex returns; every accessor
// (II, Check, IIEntries, EITEntries, D, Rho, ...) only reads, so one
// index may serve any number of concurrent queries. ApplyMutations never
// modifies its receiver either: it returns a derived index sharing every
// untouched per-landmark structure (see maintain.go).
type LocalIndex struct {
	g          *graph.Graph
	landmarks  []graph.VertexID
	isLandmark []bool
	af         []graph.VertexID // AF attribute: region landmark, NoVertex if unassigned

	// iiSorted and eitSorted ARE the per-landmark II/EIT stores: flat
	// entry arrays in ascending key order, indexed by landmark index
	// (lmIdx), so parallel construction writes disjoint slice slots.
	// The sorted order is load-bearing twice over. IIEntries and
	// EITEntries drive INS's Cut/Push marking, and marking order feeds
	// the frontier queue's FIFO tie-break — enumerating a Go map here
	// would make INS's search order (and thus its Stats) different on
	// every run. And point lookups (II, Check) binary-search the same
	// arrays, so no map shadow of the entries needs to be built — which
	// is what lets a segment boot decode the index as a straight
	// sequential fill (see ReadIndexPayload).
	iiSorted  [][]iiEntry
	eitSorted [][]eitEntry

	// D as sorted sparse rows over landmark indices: drows[i] lists the
	// landmarks x with D(landmarks[i], x) > 0, ascending by landmark
	// index, and every absent pair is zero; lmIdx maps a landmark vertex
	// to its row/column, -1 for non-landmarks. D is a k×k relation but
	// holds about |EI| non-zero cells (0.1-0.3 % of k² on LUBM), so a
	// dense matrix would grow as k² = |V|·log²|V| while these rows grow
	// with the boundary edges. Rows are immutable once stored: query-time
	// ρ lookups (INS's priority keys) binary-search one short row,
	// maintenance replaces a landmark's whole row, and a loaded index's
	// rows may alias the segment mapping.
	drows [][]dEntry
	lmIdx []int32

	// dirty marks landmarks whose entries were invalidated by an edge
	// deletion since the last full (re)build; nil when no landmark is
	// dirty. A dirty landmark's II/EIT/D entries are stale upper bounds
	// and must not drive pruning; clean landmarks stay exact because a
	// landmark's entries depend only on edges whose source lies in its
	// own region (see maintain.go).
	dirty []bool
}

// dEntry is one stored cell of D: the landmark index of x and the
// boundary-pair count D(u, x), always positive. Its layout (u32, i32)
// is also the on-disk entry layout, so a loaded row can be a view over
// the payload (see ReadIndexPayload).
type dEntry struct {
	lm uint32
	n  int32
}

// dAt returns the count a sorted D row of a k-landmark index stores
// for landmark index ix, zero when the row has no entry for it. The row
// holds n distinct columns below k in ascending order, so its j-th
// entry is at least j and at most k-n+j: the binary search only covers
// the positions where ix can sit, which on a nearly full row (small k)
// is one or two entries.
func dAt(row []dEntry, ix uint32, k int) int32 {
	n := len(row)
	lo, hi := max(0, int(ix)-(k-n)), min(int(ix)+1, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].lm < ix {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && row[lo].lm == ix {
		return row[lo].n
	}
	return 0
}

// dRow aggregates EI[u] into u's D row: one entry per landmark whose
// region holds at least one boundary vertex of EI[u], counting those
// vertices, sorted by landmark index. Rows are short (a few regions
// border F(u)), so each boundary vertex is a binary search in the row
// being built. buf is scratch space, returned for reuse; the row itself
// is allocated at its exact length.
func (idx *LocalIndex) dRow(ei map[graph.VertexID]*labelset.CMS, buf []dEntry) ([]dEntry, []dEntry) {
	acc := buf[:0]
	for w := range ei {
		a := idx.Region(w)
		if a == graph.NoVertex {
			continue
		}
		col := uint32(idx.lmIdx[a])
		i, found := slices.BinarySearchFunc(acc, col, func(e dEntry, c uint32) int { return cmp.Compare(e.lm, c) })
		if found {
			acc[i].n++
		} else {
			acc = slices.Insert(acc, i, dEntry{lm: col, n: 1})
		}
	}
	if len(acc) == 0 {
		return nil, acc
	}
	row := make([]dEntry, len(acc))
	copy(row, acc)
	return row, acc
}

// IndexParams configures construction. The index is a function of the
// graph and these two values: the build runs on GOMAXPROCS workers,
// whose count cannot change the result, and INS ranks by ρ = -D (see
// Rho): D counts connections between regions, so more is closer.
type IndexParams struct {
	// K is the number of landmarks; 0 means the paper's
	// k = log2(|V|)·√|V| (§5.1.2), capped at |V|.
	K int
	// Seed drives the random class selection of LandmarkSelect; fixed
	// seeds give reproducible indexes.
	Seed int64
}

// classFraction is the fraction of the graph's classes (rdf.Classes)
// landmarkSelect draws landmark instances from, at least one class.
const classFraction = 0.5

// DefaultK returns the paper's landmark count for |V| = n.
func DefaultK(n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Log2(float64(n)) * math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// NewLocalIndex builds the index for g (Algorithm 3).
func NewLocalIndex(g *graph.Graph, p IndexParams) *LocalIndex {
	n := g.NumVertices()
	k := p.K
	if k <= 0 {
		k = DefaultK(n)
	}
	if k > n {
		k = n
	}
	idx := &LocalIndex{
		g:          g,
		isLandmark: make([]bool, n),
		af:         make([]graph.VertexID, n),
		lmIdx:      make([]int32, n),
	}
	for i := range idx.af {
		idx.af[i] = graph.NoVertex
		idx.lmIdx[i] = -1
	}
	idx.landmarkSelect(k, p) // Line 1.
	for i, u := range idx.landmarks {
		idx.lmIdx[u] = int32(i)
	}
	idx.iiSorted = make([][]iiEntry, len(idx.landmarks))
	idx.eitSorted = make([][]eitEntry, len(idx.landmarks))
	idx.drows = make([][]dEntry, len(idx.landmarks))
	idx.bfsTraverse() // Line 2.

	// Lines 3-4: LocalFullIndex per landmark, parallelised. The passes
	// are independent: each writes only its own landmark's ii/eit/D
	// slot, and reads only the immutable af/lmIdx arrays and the
	// graph, so no locking is needed beyond the work queue. Each worker
	// owns one liScratch, reused across its landmarks, so steady-state
	// construction allocates little beyond the entries that end up in
	// the index.
	workers := min(runtime.GOMAXPROCS(0), len(idx.landmarks))
	if workers <= 1 {
		var sc liScratch
		for _, u := range idx.landmarks {
			idx.localFullIndex(u, &sc)
		}
		return idx
	}
	var wg sync.WaitGroup
	work := make(chan graph.VertexID)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc liScratch
			for u := range work {
				idx.localFullIndex(u, &sc)
			}
		}()
	}
	for _, u := range idx.landmarks {
		work <- u
	}
	close(work)
	wg.Wait()
	return idx
}

// iiEntry and eitEntry are the flattened (key, value) pairs of the
// ii/eit maps, in sorted-key order.
type iiEntry struct {
	v   graph.VertexID
	cms *labelset.CMS
}

type eitEntry struct {
	key labelset.Set
	ws  []graph.VertexID
}

// sortedIIEntries flattens a landmark's scratch II map into the stored
// ascending-vertex entry array. Construction and maintenance both work
// over a map (the BFS inserts by vertex key) and finalise through here.
func sortedIIEntries(m map[graph.VertexID]*labelset.CMS) []iiEntry {
	out := make([]iiEntry, 0, len(m))
	for v, c := range m {
		out = append(out, iiEntry{v: v, cms: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].v < out[j].v })
	return out
}

// sortedEITEntries flattens a landmark's scratch EIT map into the stored
// ascending-key entry array.
func sortedEITEntries(m map[labelset.Set][]graph.VertexID) []eitEntry {
	out := make([]eitEntry, 0, len(m))
	for key, ws := range m {
		out = append(out, eitEntry{key: key, ws: ws})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// landmarkSelect implements the class-driven selection of §5.1.2: pick a
// random set of classes from LS, then evenly mark k instances of the
// selected classes as landmarks. LS is read off the graph's own
// rdf:type/rdfs:subClassOf edges (rdf.Classes), and a class's instances
// are the tails of its rdf:type in-edges. Selecting by raw degree would
// favour vertices whose incident edges carry only RDF vocabulary labels,
// making the index useless for constraints without those labels
// (§5.1.2). When the graph has no class instances, it falls back to
// highest-degree selection and, in either case, pads with high-degree
// vertices if the selected classes provide fewer than k instances.
func (idx *LocalIndex) landmarkSelect(k int, p IndexParams) {
	g := idx.g
	rng := rand.New(rand.NewSource(p.Seed))
	var pool []graph.VertexID
	// Without an rdf:type label no class has instances: the pool stays
	// empty and selection falls back to degree order.
	typ, hasType := g.LabelByName(rdf.TypePredicate)
	if classes := rdf.Classes(g); hasType && len(classes) > 0 {
		nSel := max(1, int(float64(len(classes))*classFraction))
		perm := rng.Perm(len(classes))
		seen := make(map[graph.VertexID]bool)
		for _, ci := range perm[:nSel] {
			for _, e := range g.InWith(classes[ci], typ) {
				if !seen[e.To] {
					seen[e.To] = true
					pool = append(pool, e.To)
				}
			}
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
	take := func(v graph.VertexID) {
		if !idx.isLandmark[v] {
			idx.isLandmark[v] = true
			idx.landmarks = append(idx.landmarks, v)
		}
	}
	if len(pool) >= k {
		// Evenly mark k instances across the pool.
		step := float64(len(pool)) / float64(k)
		for i := 0; i < k; i++ {
			take(pool[int(float64(i)*step)])
		}
	} else {
		for _, v := range pool {
			take(v)
		}
	}
	if len(idx.landmarks) < k {
		// Degree-ordered padding (also the class-free fallback).
		order := make([]graph.VertexID, g.NumVertices())
		for i := range order {
			order[i] = graph.VertexID(i)
		}
		sort.Slice(order, func(i, j int) bool {
			di, dj := g.Degree(order[i]), g.Degree(order[j])
			if di != dj {
				return di > dj
			}
			return order[i] < order[j]
		})
		for _, v := range order {
			if len(idx.landmarks) == k {
				break
			}
			take(v)
		}
	}
}

// bfsTraverse implements BFSTraverse (Lines 25-34): a simultaneous BFS
// from all landmarks, round-robin one step per landmark queue, assigning
// w.AF = u when landmark u's wave reaches w first. Regions are disjoint
// and may not cover all of G.
func (idx *LocalIndex) bfsTraverse() {
	g := idx.g
	explored := make([]bool, g.NumVertices())
	queues := make([][]graph.VertexID, 0, len(idx.landmarks))
	owners := make([]graph.VertexID, 0, len(idx.landmarks))
	for _, u := range idx.landmarks {
		explored[u] = true
		idx.af[u] = u
		queues = append(queues, []graph.VertexID{u})
		owners = append(owners, u)
	}
	for len(queues) > 0 {
		nextQ := queues[:0]
		nextO := owners[:0]
		for qi, q := range queues {
			u := owners[qi]
			v := q[0]
			q = q[1:]
			for _, e := range g.Out(v) {
				if explored[e.To] {
					continue
				}
				explored[e.To] = true
				idx.af[e.To] = u
				q = append(q, e.To)
			}
			if len(q) > 0 {
				nextQ = append(nextQ, q)
				nextO = append(nextO, u)
			}
		}
		queues = nextQ
		owners = nextO
	}
}

// liState is one (vertex, label set) element of the LocalFullIndex BFS
// queue.
type liState struct {
	v graph.VertexID
	l labelset.Set
}

// liScratch is the per-worker reusable state of the parallel build: the
// backing arrays of the BFS queue and of the D row being counted survive
// across a worker's landmarks.
type liScratch struct {
	queue []liState
	row   []dEntry
}

// localFullIndex implements LocalFullIndex(u) (Lines 5-15): a CMS BFS
// restricted to F(u). Pairs leaving the region feed EI[u], which is then
// reversed into EIT[u] and aggregated into D[u]. The result depends only
// on u, so the build order (and worker count) cannot change the index.
func (idx *LocalIndex) localFullIndex(u graph.VertexID, sc *liScratch) {
	g := idx.g
	ii := make(map[graph.VertexID]*labelset.CMS)
	ei := make(map[graph.VertexID]*labelset.CMS)
	queue := append(sc.queue[:0], liState{u, 0})
	defer func() { sc.queue = queue[:0] }()
	insert := func(m map[graph.VertexID]*labelset.CMS, v graph.VertexID, l labelset.Set) bool {
		c := m[v]
		if c == nil {
			c = labelset.NewCMS()
			m[v] = c
		}
		return c.Insert(l)
	}
	for head := 0; head < len(queue); head++ {
		st := queue[head]
		if !insert(ii, st.v, st.l) { // Line 10.
			continue
		}
		// Walk the CSR label runs: the extended label set st.l + e.Label is
		// constant per run, so it is computed once per run instead of once
		// per edge.
		rs := g.OutRuns(st.v)
		for ri, n := 0, rs.Len(); ri < n; ri++ { // Lines 11-14.
			nl := st.l.Add(rs.Label(ri))
			for _, e := range rs.Run(ri) {
				if idx.regionIs(e.To, u) {
					queue = append(queue, liState{e.To, nl})
				} else {
					insert(ei, e.To, nl)
				}
			}
		}
	}
	idx.iiSorted[idx.lmIdx[u]] = sortedIIEntries(ii)

	// Line 15: EIT[u] and D[u] from EI[u].
	eit := make(map[labelset.Set][]graph.VertexID)
	for w, c := range ei {
		for _, l := range c.Sets() {
			eit[l] = append(eit[l], w)
		}
	}
	for _, ws := range eit {
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	}
	li := idx.lmIdx[u]
	idx.eitSorted[li] = sortedEITEntries(eit)
	idx.drows[li], sc.row = idx.dRow(ei, sc.row)
}

// Landmarks returns the chosen landmarks I.
func (idx *LocalIndex) Landmarks() []graph.VertexID { return idx.landmarks }

// IsLandmark reports whether v ∈ I. Vertices beyond the indexed range —
// interned by mutations after the index was built — are never landmarks.
func (idx *LocalIndex) IsLandmark(v graph.VertexID) bool {
	return int(v) < len(idx.isLandmark) && idx.isLandmark[v]
}

// Region returns v.AF — the landmark whose subgraph F contains v — or
// NoVertex when the traversal did not assign v to any region (including
// vertices interned after the index was built).
func (idx *LocalIndex) Region(v graph.VertexID) graph.VertexID {
	if int(v) >= len(idx.af) {
		return graph.NoVertex
	}
	return idx.af[v]
}

// regionIs reports Region(v) == u; bounds-safe for vertices interned
// after the index was built (their region is NoVertex, never a
// landmark).
func (idx *LocalIndex) regionIs(v, u graph.VertexID) bool {
	return int(v) < len(idx.af) && idx.af[v] == u
}

// Graph returns the graph view the index's entries describe: the build
// graph for a fresh index, the post-batch view for one derived by
// ApplyMutations. INS serves only that view (ErrIndexMismatch
// otherwise).
func (idx *LocalIndex) Graph() *graph.Graph { return idx.g }

// Dirty reports whether landmark w's entries were invalidated by an edge
// deletion since the last full (re)build. Dirty landmarks are excluded
// from INS's Check/Cut/Push pruning and expanded like ordinary vertices;
// compaction rebuilds the index and clears all dirtiness.
func (idx *LocalIndex) Dirty(w graph.VertexID) bool {
	if idx.dirty == nil {
		return false
	}
	li := idx.lm(w)
	return li >= 0 && idx.dirty[li]
}

// DirtyLandmarks returns the number of landmarks currently invalidated
// by deletions.
func (idx *LocalIndex) DirtyLandmarks() int {
	n := 0
	for _, d := range idx.dirty {
		if d {
			n++
		}
	}
	return n
}

// lm returns the landmark index of u, or -1 for non-landmarks and
// vertices beyond the indexed range.
func (idx *LocalIndex) lm(u graph.VertexID) int32 {
	if int(u) >= len(idx.lmIdx) {
		return -1
	}
	return idx.lmIdx[u]
}

// iiAt binary-searches landmark li's II entries for vertex v; nil when
// v is outside F(landmarks[li]). The array replaces the map the index
// used to carry: II holds ~|F(u)| entries, so the search is a dozen
// probes of one cache-resident slice — and boot-time decode never has
// to populate a hash table.
func (idx *LocalIndex) iiAt(li int32, v graph.VertexID) *labelset.CMS {
	s := idx.iiSorted[li]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].v < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].v == v {
		return s[lo].cms
	}
	return nil
}

// II returns M(u, v | F(u)) for landmark u, or nil when u is not a
// landmark or v is outside F(u).
func (idx *LocalIndex) II(u, v graph.VertexID) *labelset.CMS {
	li := idx.lm(u)
	if li < 0 {
		return nil
	}
	return idx.iiAt(li, v)
}

// Check implements the Check(II[w], t*) of Algorithm 4 line 22: whether
// the landmark w reaches t (a vertex of F(w)) within its region under L.
func (idx *LocalIndex) Check(w, t graph.VertexID, L labelset.Set) bool {
	li := idx.lm(w)
	return li >= 0 && idx.iiAt(li, t).Covers(L)
}

// IIEntries calls fn for every (vertex, CMS) pair of II[u] whose CMS
// covers L — the vertices Cut(II[u]) marks. Enumeration follows the
// materialised sorted order so a query's marking sequence (and thus
// INS's Stats) is identical on every run.
func (idx *LocalIndex) IIEntries(u graph.VertexID, L labelset.Set, fn func(graph.VertexID)) {
	li := idx.lm(u)
	if li < 0 {
		return
	}
	for _, e := range idx.iiSorted[li] {
		if e.cms.Covers(L) {
			fn(e.v)
		}
	}
}

// EITEntries calls fn for every boundary vertex of EIT[u] whose key label
// set is a subset of L — the vertices Push(EIT[u]) enqueues (Theorem 5.1).
// Enumeration follows the materialised sorted order (see IIEntries).
func (idx *LocalIndex) EITEntries(u graph.VertexID, L labelset.Set, fn func(graph.VertexID)) {
	li := idx.lm(u)
	if li < 0 {
		return
	}
	for _, e := range idx.eitSorted[li] {
		if !e.key.SubsetOf(L) {
			continue
		}
		for _, w := range e.ws {
			fn(w)
		}
	}
}

// D returns D(u, x): the boundary-pair count from F(u) into F(x). Zero
// when unknown or when either vertex is not a landmark.
func (idx *LocalIndex) D(u, x graph.VertexID) int {
	iu, ix := idx.lm(u), idx.lm(x)
	if iu < 0 || ix < 0 {
		return 0
	}
	return int(dAt(idx.drows[iu], uint32(ix), len(idx.drows)))
}

// Rho is the estimated closeness used by INS's evaluation function, as
// an order-preserving code for its heap keys: smaller is closer. The
// paper defines ρ(s,t) = D(s.AF, t.AF) and prefers small ρ; D counts
// connections between regions, so more is closer, and the code falls
// as D grows (rhoCode); the CHANGES.md entry that retired the literal
// reading records the ablation behind this. u and t in one region code
// 0, closest of all; vertices outside every region get the worst
// estimate, that of D = 0.
func (idx *LocalIndex) Rho(u, t graph.VertexID) uint64 {
	au, at := idx.Region(u), idx.Region(t)
	if au == graph.NoVertex || at == graph.NoVertex {
		return 1 + rhoCode(0)
	}
	if au == at {
		return 0
	}
	return 1 + rhoCode(int(dAt(idx.drows[idx.lmIdx[au]], uint32(idx.lmIdx[at]), len(idx.drows))))
}

// Entries returns the number of stored minimal label sets across II plus
// boundary slots across EIT.
func (idx *LocalIndex) Entries() int { return idx.Footprint().Entries }

// Footprint is the index's size: its stored entries and its memory by
// structure, in bytes.
type Footprint struct {
	// Entries counts the stored minimal label sets across II plus the
	// boundary slots across EIT.
	Entries int
	// Regions counts the per-vertex arrays: AF, the landmark flag and
	// the landmark-index map (9 bytes per indexed vertex).
	Regions int64
	// II counts 16 bytes per II entry (vertex and CMS pointer) plus 8
	// per stored label set.
	II int64
	// EIT counts 8 bytes per EIT key plus 4 per boundary vertex.
	EIT int64
	// D counts 8 bytes per stored (landmark, count) entry plus one
	// 24-byte row header per landmark.
	D int64
}

// Total is the sum of the byte counts, the index's SizeBytes.
func (f Footprint) Total() int64 { return f.Regions + f.II + f.EIT + f.D }

// Footprint sizes the index in one walk over its entries; the bytes
// grow with the stored entries, O(|E| + k) for D, not with k².
func (idx *LocalIndex) Footprint() Footprint {
	f := Footprint{Regions: int64(len(idx.af)) * 9}
	for _, entries := range idx.iiSorted {
		for _, e := range entries {
			n := e.cms.Len()
			f.Entries += n
			f.II += 16 + int64(n)*8
		}
	}
	for _, entries := range idx.eitSorted {
		for _, e := range entries {
			f.Entries += len(e.ws)
			f.EIT += 8 + int64(len(e.ws))*4
		}
	}
	for _, row := range idx.drows {
		f.D += 24 + int64(len(row))*8
	}
	return f
}

// SizeBytes estimates the index footprint: Footprint().Total().
func (idx *LocalIndex) SizeBytes() int64 { return idx.Footprint().Total() }
