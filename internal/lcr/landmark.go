package lcr

import (
	"math"
	"sort"

	"lscr/internal/graph"
	"lscr/internal/labelset"
)

// LandmarkIndex is the traditional landmark LCR index in the style of
// Valstar et al. [19] — the "Traditional" columns of Table 2. Following
// §3.2 of the paper:
//
//   - k landmarks are the k highest-degree vertices
//     (k = 1250 + √|V| in [19]'s experiments, capped at |V|);
//   - for each landmark v, all CMSs from v to every vertex v reaches are
//     precomputed over the whole graph;
//   - each non-landmark vertex is indexed with b CMS entries (b = 20);
//   - for false-query acceleration, R_L(v) = {w | v -L-> w} is
//     precomputed for each landmark and every L ⊆ ℒ with
//     |L| ≤ |ℒ|/4 + 1.
//
// The point of this type in this repository is its construction cost:
// indexing the whole graph per landmark is the prohibitive part the
// paper's local index avoids by restricting each landmark to a subgraph.
type LandmarkIndex struct {
	g          *graph.Graph
	isLandmark []bool
	landmarks  []graph.VertexID
	full       map[graph.VertexID][]*labelset.CMS // landmark -> per-vertex CMS
	bounded    map[graph.VertexID][]*labelset.CMS // non-landmark -> partial per-vertex CMS
	rl         map[graph.VertexID]map[labelset.Set][]graph.VertexID
}

// LandmarkParams configures construction.
type LandmarkParams struct {
	// K is the number of landmarks; 0 means 1250+√|V| (the paper's
	// setting for [19]), capped at |V|.
	K int
	// B is the per-non-landmark entry budget; 0 means 20 (the paper's
	// setting for [19]).
	B int
	// SkipRL disables the R_L precomputation (it is exponential in |ℒ|;
	// tests on larger label universes disable it).
	SkipRL bool
}

// DefaultK returns the paper's k for |V| = n.
func DefaultK(n int) int {
	k := 1250 + int(math.Sqrt(float64(n)))
	if k > n {
		k = n
	}
	return k
}

// NewLandmarkIndex builds the index.
func NewLandmarkIndex(g *graph.Graph, p LandmarkParams) *LandmarkIndex {
	n := g.NumVertices()
	k := p.K
	if k <= 0 {
		k = DefaultK(n)
	}
	if k > n {
		k = n
	}
	b := p.B
	if b <= 0 {
		b = 20
	}
	idx := &LandmarkIndex{
		g:          g,
		isLandmark: make([]bool, n),
		full:       make(map[graph.VertexID][]*labelset.CMS, k),
		bounded:    make(map[graph.VertexID][]*labelset.CMS, n-k),
		rl:         make(map[graph.VertexID]map[labelset.Set][]graph.VertexID, k),
	}
	// Highest-degree landmark selection ([19]; contrast with the local
	// index's class-driven selection, §5.1.2).
	order := make([]graph.VertexID, n)
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
	idx.landmarks = append(idx.landmarks, order[:k]...)
	for _, v := range idx.landmarks {
		idx.isLandmark[v] = true
	}
	// Full per-landmark CMS over the whole graph — the expensive part.
	for _, v := range idx.landmarks {
		idx.full[v] = SourceCMS(g, v)
	}
	// b bounded entries per non-landmark.
	for v := 0; v < n; v++ {
		if idx.isLandmark[v] {
			continue
		}
		budget := b
		cms := make([]*labelset.CMS, n)
		idx.bounded[graph.VertexID(v)] = sourceCMSInto(g, graph.VertexID(v), cms, &budget)
	}
	// R_L per landmark for small L.
	if !p.SkipRL {
		maxLen := g.NumLabels()/4 + 1
		subsets := smallSubsets(g.NumLabels(), maxLen)
		for _, v := range idx.landmarks {
			m := make(map[labelset.Set][]graph.VertexID, len(subsets))
			for _, L := range subsets {
				m[L] = ReachableSet(g, v, L)
			}
			idx.rl[v] = m
		}
	}
	return idx
}

// smallSubsets enumerates every subset of the first nLabels labels with at
// most maxLen members.
func smallSubsets(nLabels, maxLen int) []labelset.Set {
	var out []labelset.Set
	var rec func(start int, cur labelset.Set, size int)
	rec = func(start int, cur labelset.Set, size int) {
		out = append(out, cur)
		if size == maxLen {
			return
		}
		for i := start; i < nLabels; i++ {
			rec(i+1, cur.Add(labelset.Label(i)), size+1)
		}
	}
	rec(0, 0, 0)
	return out
}

// Landmarks returns the chosen landmark vertices.
func (idx *LandmarkIndex) Landmarks() []graph.VertexID { return idx.landmarks }

// IsLandmark reports whether v is a landmark.
func (idx *LandmarkIndex) IsLandmark(v graph.VertexID) bool { return idx.isLandmark[v] }

// Reach answers s -L-> t using the index, falling back to an online BFS
// that shortcuts through landmark entries when s is not fully indexed.
func (idx *LandmarkIndex) Reach(s, t graph.VertexID, L labelset.Set) bool {
	if s == t {
		return true
	}
	if rl, ok := idx.rl[s]; ok {
		// The R_L fast path of [19]: for small label constraints the
		// reachable set is precomputed, making false queries O(set
		// lookup).
		if set, ok := rl[L]; ok {
			for _, w := range set {
				if w == t {
					return true
				}
			}
			return false
		}
	}
	if full, ok := idx.full[s]; ok {
		return full[t].Covers(L)
	}
	if bnd, ok := idx.bounded[s]; ok && bnd[t].Covers(L) {
		return true
	}
	// Online BFS with landmark shortcuts.
	w := GetWalker()
	defer PutWalker(w)
	viaLandmark := false
	return w.Run(idx.g, s, t, L, Walk{Visit: func(u graph.VertexID) Step {
		full, ok := idx.full[u]
		if !ok {
			return Expand
		}
		if full[t].Covers(L) {
			viaLandmark = true
			return Stop
		}
		// Everything u reaches under L is known and excludes t, so
		// expanding u cannot help.
		return Skip
	}}) || viaLandmark
}

// Entries returns the total number of stored minimal label sets.
func (idx *LandmarkIndex) Entries() int {
	n := 0
	for _, row := range idx.full {
		for _, c := range row {
			n += c.Len()
		}
	}
	for _, row := range idx.bounded {
		for _, c := range row {
			n += c.Len()
		}
	}
	return n
}

// SizeBytes estimates the index footprint: 8 bytes per stored label set,
// 16 bytes per non-nil CMS slot, 4 bytes per R_L member.
func (idx *LandmarkIndex) SizeBytes() int64 {
	var sz int64
	count := func(rows map[graph.VertexID][]*labelset.CMS) {
		for _, row := range rows {
			for _, c := range row {
				if c != nil {
					sz += 16 + int64(c.Len())*8
				}
			}
		}
	}
	count(idx.full)
	count(idx.bounded)
	for _, m := range idx.rl {
		for _, vs := range m {
			sz += 8 + int64(len(vs))*4
		}
	}
	return sz
}
