package search

import (
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/metrics"
)

// BKS is the serial subgraph-search baseline [10] the paper measures PBKS
// against. Its two defining traits, reproduced here, are exactly the ones
// §IV-A identifies as obstacles to parallelism:
//
//  1. a "vertex ordering" preprocessing that bin-sorts every adjacency
//     list by descending coreness, so the neighbors with coreness >= k
//     always form a prefix; and
//  2. score computation that walks coreness levels strictly downward,
//     each level's state building on the levels above it (a built-in
//     barrier per level).
type BKS struct {
	g    *graph.Graph
	core []int32
	h    *hierarchy.HCD
	kmax int32
	// Coreness-sorted adjacency in CSR form: for every v the neighbors
	// appear in descending coreness (ties ascending id).
	offsets []int64
	adj     []int32
}

// NewBKS builds the baseline's search state, including the bin-sort
// vertex-ordering preprocessing (O(n + m), serial).
func NewBKS(g *graph.Graph, core []int32, h *hierarchy.HCD) *BKS {
	n := g.NumVertices()
	b := &BKS{
		g:       g,
		core:    core,
		h:       h,
		offsets: make([]int64, n+1),
		adj:     make([]int32, 2*g.NumEdges()),
	}
	for _, c := range core {
		if c > b.kmax {
			b.kmax = c
		}
	}
	for v := 0; v < n; v++ {
		b.offsets[v+1] = b.offsets[v] + int64(g.Degree(int32(v)))
	}
	// Global bin sort: shells are appended in descending coreness, ids
	// ascending within a shell, each vertex pushed onto all its neighbors'
	// lists — one O(n + m) distribution pass.
	shells := make([][]int32, b.kmax+1)
	for v := int32(0); v < int32(n); v++ {
		shells[core[v]] = append(shells[core[v]], v)
	}
	cursor := make([]int64, n)
	copy(cursor, b.offsets[:n])
	for k := b.kmax; k >= 0; k-- {
		for _, u := range shells[k] {
			for _, v := range g.Neighbors(u) {
				b.adj[cursor[v]] = u
				cursor[v]++
			}
		}
	}
	return b
}

// sorted returns v's adjacency list ordered by descending coreness.
func (b *BKS) sorted(v int32) []int32 {
	return b.adj[b.offsets[v]:b.offsets[v+1]]
}

// Search runs the serial baseline for the given metric and returns the
// best k-core. Results are identical to PBKS (both compute exact primary
// values); only the execution strategy differs.
func (b *BKS) Search(m metrics.Metric) Result {
	nn := b.h.NumNodes()
	if nn == 0 {
		return Result{Node: hierarchy.Nil}
	}
	var vals []metrics.PrimaryValues
	if m.Kind() == metrics.TypeA {
		vals = b.primaryA()
	} else {
		vals = b.primaryB()
	}
	stats := metrics.GraphStats{N: int64(b.g.NumVertices()), M: b.g.NumEdges()}
	scores := make([]float64, nn)
	bestNode := hierarchy.NodeID(0)
	for i := 0; i < nn; i++ {
		scores[i] = m.Score(vals[i], stats)
		if scores[i] > scores[bestNode] {
			bestNode = hierarchy.NodeID(i)
		}
	}
	return Result{
		Node:   bestNode,
		K:      b.h.K[bestNode],
		Score:  scores[bestNode],
		Values: vals[bestNode],
		Scores: scores,
	}
}

// shellsDescending yields the k-shells from kmax down to 0 — the level
// loop every BKS computation is built around.
func (b *BKS) shellsDescending() [][]int32 {
	shells := make([][]int32, b.kmax+1)
	for v := int32(0); v < int32(b.g.NumVertices()); v++ {
		shells[b.core[v]] = append(shells[b.core[v]], v)
	}
	return shells
}

// primaryA computes the Type A primary values serially: levels descend
// from kmax, and within each level the sorted adjacency lists provide
// gt/eq as prefix scans.
func (b *BKS) primaryA() []metrics.PrimaryValues {
	nn := b.h.NumNodes()
	vals := make([]int64, nn*3)
	shells := b.shellsDescending()
	for k := b.kmax; k >= 0; k-- {
		for _, v := range shells[k] {
			var gt, eq int64
			list := b.sorted(v)
			i := 0
			for ; i < len(list) && b.core[list[i]] > k; i++ {
				gt++
			}
			for ; i < len(list) && b.core[list[i]] == k; i++ {
				eq++
			}
			lt := int64(len(list)) - gt - eq
			row := int(b.h.TID[v]) * 3
			vals[row]++
			vals[row+1] += 2*gt + eq
			vals[row+2] += lt - gt
		}
	}
	accumulate(b.h, vals, 3)
	out := make([]metrics.PrimaryValues, nn)
	for i := range out {
		out[i] = metrics.PrimaryValues{N: vals[i*3], M: vals[i*3+1] / 2, B: vals[i*3+2]}
	}
	return out
}

// primaryB computes triangles and triplets serially with the same
// rank-unique charging as PBKS, but walking shells in descending coreness
// and exploiting the coreness-sorted lists for the triplet level runs.
func (b *BKS) primaryB() []metrics.PrimaryValues {
	n := b.g.NumVertices()
	nn := b.h.NumNodes()
	vals := make([]int64, nn*2)
	mark := make([]int32, n)
	shells := b.shellsDescending()
	rankLess := func(a, c int32) bool {
		return b.core[a] < b.core[c] || (b.core[a] == b.core[c] && a < c)
	}
	for k := b.kmax; k >= 0; k-- {
		for _, v := range shells[k] {
			dv := int32(b.g.Degree(v))
			// Triangles charged to their lowest-rank endpoint.
			for _, u := range b.g.Neighbors(v) {
				mark[u] = v + 1
			}
			for _, u := range b.g.Neighbors(v) {
				du := int32(b.g.Degree(u))
				if du < dv || (du == dv && u < v) {
					for _, w := range b.g.Neighbors(u) {
						if mark[w] == v+1 && rankLess(w, u) && rankLess(w, v) {
							vals[int(b.h.TID[w])*2]++
						}
					}
				}
			}
			// Triplets centered at v: the sorted list's coreness runs give
			// the per-level neighbor counts directly.
			list := b.sorted(v)
			i := 0
			var gt int64
			for ; i < len(list) && b.core[list[i]] >= k; i++ {
				gt++
			}
			vals[int(b.h.TID[v])*2+1] += gt * (gt - 1) / 2
			for i < len(list) {
				lvl := b.core[list[i]]
				w := list[i]
				var cnt int64
				for ; i < len(list) && b.core[list[i]] == lvl; i++ {
					cnt++
				}
				vals[int(b.h.TID[w])*2+1] += cnt*(cnt-1)/2 + gt*cnt
				gt += cnt
			}
		}
	}
	accumulate(b.h, vals, 2)
	a := b.primaryA()
	out := make([]metrics.PrimaryValues, nn)
	for i := range out {
		out[i] = a[i]
		out[i].Triangles = vals[i*2]
		out[i].Triplets = vals[i*2+1]
	}
	return out
}

// accumulate folds vals bottom-up over the forest (Algorithm 3's lines
// 6-9): vals is a row-major matrix with one row of `width` int64 values
// per tree node; on return, row i holds the sum of the original rows
// over node i's entire subtree. It is one pass in child-before-parent
// order.
func accumulate(h *hierarchy.HCD, vals []int64, width int) {
	if h.NumNodes() == 0 || width == 0 {
		return
	}
	if len(vals) != h.NumNodes()*width {
		panic("search: vals size does not match node count and width")
	}
	for _, id := range h.BottomUp() {
		pa := h.Parent[id]
		if pa == hierarchy.Nil {
			continue
		}
		for f := 0; f < width; f++ {
			vals[int(pa)*width+f] += vals[int(id)*width+f]
		}
	}
}
