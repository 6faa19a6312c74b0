// Package search implements subgraph search on the HCD (§IV): given a
// community scoring metric Q, find the k-core with the highest score among
// all k-cores for every k.
//
// Two engines are provided:
//
//   - PBKS (Index.Search), the paper's parallel vertex-centric framework
//     (Algorithms 3-5): every motif — vertex, edge, boundary edge,
//     triangle, triplet — is charged exactly once, to the tree node of the
//     motif's lowest-vertex-rank endpoint; contributions are then folded
//     bottom-up over the hierarchy in one pass over a node order the
//     Index builds once, giving every k-core's primary values, and the
//     metric is evaluated per node. Work: O(n) per Type A scoring,
//     O(m^1.5) per Type B scoring, after a once-only O(m) preprocessing —
//     work-efficient in both cases.
//
//   - BKS (NewBKS / BKS.Search), the serial state of the art [10] the
//     paper compares against: it bin-sorts every adjacency list by
//     coreness ("vertex ordering"), then computes scores level by level in
//     strictly decreasing coreness, each level depending on the results of
//     the previous one — the structure that makes it hard to parallelise.
package search

import (
	"context"
	"math"
	"time"

	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/metrics"
	"hcd/internal/obs"
	"hcd/internal/par"
	"hcd/internal/shellidx"
)

// Index is the PBKS search state for one (graph, core, HCD) triple. The
// §IV-A preprocessing — per-vertex counts of neighbors with greater and
// equal coreness — runs once in NewIndex and is shared by every subsequent
// Search, whatever the metric, as is the bottom-up node order the
// per-query fold walks.
type Index struct {
	g    *graph.Graph
	core []int32
	h    *hierarchy.HCD
	lay  *shellidx.Layout   // optional coreness-ordered adjacency (may be nil)
	gtK  []int32            // gtK[v] = |{u in N(v) : c(u) > c(v)}|
	eqK  []int32            // eqK[v] = |{u in N(v) : c(u) = c(v)}|
	up   []hierarchy.NodeID // tree nodes, every child before its parent
	kmax int32
}

// NewIndex builds the search index, running the preprocessing with the
// given number of threads. core and h must belong to g. Callers that
// already hold a shellidx.Layout for (g, core) — e.g. one shared with
// core.PHCDWithLayout — should use NewIndexWithLayout, which skips the 2m
// preprocessing scan entirely.
func NewIndex(g *graph.Graph, core []int32, h *hierarchy.HCD, threads int) *Index {
	return NewIndexWithLayout(g, core, h, nil, threads)
}

// NewIndexWithLayout builds the search index on a prebuilt coreness-ordered
// adjacency layout (shellidx.Build for the same g and core; nil falls back
// to scanning the raw adjacency). The layout already carries the gt/eq
// neighbor counts, so the §IV-A preprocessing becomes two O(1) aliases;
// PrimaryB takes each vertex's deeper segment as the first half of its
// forward triangle list, and its triplet binning walks the layout's
// shallower segment instead of re-bucketing neighbors by coreness.
func NewIndexWithLayout(g *graph.Graph, core []int32, h *hierarchy.HCD, lay *shellidx.Layout, threads int) *Index {
	ix, err := NewIndexCtx(context.Background(), g, core, h, lay, threads)
	if err != nil {
		panic(err)
	}
	return ix
}

// NewIndexCtx is NewIndexWithLayout with failure containment and
// cooperative cancellation: a worker panic in the preprocessing scan
// surfaces as a *par.PanicError instead of crashing the process, and a
// cancelled ctx (nil means background) aborts the scan at its internal
// chunk boundaries.
func NewIndexCtx(ctx context.Context, g *graph.Graph, core []int32, h *hierarchy.HCD, lay *shellidx.Layout, threads int) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer obs.StartSpanCtx(ctx, "search.newindex").End()
	n := g.NumVertices()
	ix := &Index{
		g:    g,
		core: core,
		h:    h,
		lay:  lay,
		up:   h.BottomUp(),
	}
	for _, c := range core {
		if c > ix.kmax {
			ix.kmax = c
		}
	}
	if lay != nil {
		ix.gtK = lay.GtCounts()
		ix.eqK = lay.EqCounts()
		return ix, ctx.Err()
	}
	ix.gtK = make([]int32, n)
	ix.eqK = make([]int32, n)
	err := par.ForEachErr(ctx, n, threads, func(i int) error {
		v := int32(i)
		var gt, eq int32
		for _, u := range g.Neighbors(v) {
			switch {
			case core[u] > core[v]:
				gt++
			case core[u] == core[v]:
				eq++
			}
		}
		ix.gtK[v] = gt
		ix.eqK[v] = eq
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// Hierarchy returns the HCD the index searches over.
func (ix *Index) Hierarchy() *hierarchy.HCD { return ix.h }

// Bytes returns the index's exclusive storage footprint in bytes: the
// bottom-up node order, plus the layout's footprint (reordered
// adjacency, count arrays and the ranking it keeps) when the index owns
// one, or the gt/eq preprocessing arrays when it had to build its own. With a layout present gtK/eqK alias the
// layout's arrays (NewIndexCtx), so only the layout side is counted —
// never both. The graph, coreness array and hierarchy are owned by the
// caller and excluded.
func (ix *Index) Bytes() int64 {
	b := int64(len(ix.up)) * 4
	if ix.lay != nil {
		return b + ix.lay.Bytes()
	}
	return b + int64(len(ix.gtK))*4 + int64(len(ix.eqK))*4
}

// Stats returns the whole-graph statistics metrics normalise by.
func (ix *Index) Stats() metrics.GraphStats {
	return metrics.GraphStats{N: int64(ix.g.NumVertices()), M: ix.g.NumEdges()}
}

// Result reports the outcome of one subgraph search.
type Result struct {
	// Node is the winning k-core's tree node (hierarchy.Nil on an empty
	// hierarchy).
	Node hierarchy.NodeID
	// K is the winning k-core's coreness level.
	K int32
	// Score is the winning k-core's community score.
	Score float64
	// Values are the winning k-core's primary values.
	Values metrics.PrimaryValues
	// Scores holds every tree node's score, indexed by NodeID.
	Scores []float64
}

// Search runs PBKS: it computes the primary values the metric needs
// (Algorithm 4 for Type A, Algorithm 5 for Type B), folds them bottom-up,
// scores every k-core and returns the best one. Ties break toward the
// smaller node id so results are deterministic.
func (ix *Index) Search(m metrics.Metric, threads int) Result {
	r, err := ix.SearchCtx(context.Background(), m, threads)
	if err != nil {
		panic(err)
	}
	return r
}

// SearchCtx is Search with failure containment and cooperative
// cancellation: a panic inside either primary-value kernel or the tree
// accumulation surfaces as a *par.PanicError instead of crashing the
// process, and a cancelled ctx (nil means background) aborts the kernels
// at their internal chunk boundaries. Thin wrapper over SearchReportCtx,
// discarding the report.
func (ix *Index) SearchCtx(ctx context.Context, m metrics.Metric, threads int) (Result, error) {
	r, _, err := ix.SearchReportCtx(ctx, m, threads)
	return r, err
}

// Report describes how one SearchReportCtx call ran: the resolved thread
// count, the wall-clock total, and the per-phase breakdown (primary-value
// kernel including tree accumulation, then metric scoring) with each
// phase's worker-balance statistics.
type Report struct {
	// Threads is the resolved worker count the kernels used.
	Threads int `json:"threads"`
	// Elapsed is the wall-clock duration of the whole search.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Phases is the per-phase breakdown; durations sum to ≈ Elapsed.
	Phases []obs.PhaseStat `json:"phases"`
}

// SearchReportCtx is SearchCtx with a per-phase report: the returned
// Report is non-nil whenever err is nil, and its phase durations are
// measured around the primary-value kernel (Algorithm 4 or 5, including
// the bottom-up tree accumulation) and the metric-evaluation pass.
func (ix *Index) SearchReportCtx(ctx context.Context, m metrics.Metric, threads int) (Result, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &Report{Threads: par.Threads(threads)}
	//hcdlint:allow determinism wall-clock reads here feed only Report.Elapsed/Phases, never the Result; the winner and scores are clock-independent
	start := time.Now()
	defer obs.StartSpanCtx(ctx, "search").End()
	nn := ix.h.NumNodes()
	if nn == 0 {
		rep.Elapsed = time.Since(start)
		return Result{Node: hierarchy.Nil}, rep, ctx.Err()
	}
	m0 := obs.ReadMem()
	sp := obs.StartPhaseCtx(ctx, "search.primary")
	//hcdlint:allow determinism phase timing for Report.Phases only; no influence on the Result
	ps := time.Now()
	var vals []metrics.PrimaryValues
	var err error
	if m.Kind() == metrics.TypeA {
		vals, err = ix.PrimaryACtx(ctx, threads)
	} else {
		vals, err = ix.PrimaryBCtx(ctx, threads)
	}
	pd := time.Since(ps)
	sp.End()
	rep.Phases = append(rep.Phases, obs.NewPhaseStat("search.primary", pd, sp.WorkerStats()).WithMem(obs.ReadMem().Sub(m0)))
	if err != nil {
		return Result{Node: hierarchy.Nil}, nil, err
	}
	m0 = obs.ReadMem()
	sp = obs.StartPhaseCtx(ctx, "search.score")
	//hcdlint:allow determinism phase timing for Report.Phases only; no influence on the Result
	ps = time.Now()
	r, err := ix.pickCtx(ctx, m, vals, threads)
	pd = time.Since(ps)
	sp.End()
	if err != nil {
		return Result{Node: hierarchy.Nil}, nil, err
	}
	rep.Phases = append(rep.Phases, obs.NewPhaseStat("search.score", pd, sp.WorkerStats()).WithMem(obs.ReadMem().Sub(m0)))
	rep.Elapsed = time.Since(start)
	return r, rep, nil
}

// pickCtx evaluates the metric on every node's primary values and returns
// the argmax (Algorithm 3 lines 9-11); a scoring panic surfaces as a
// *par.PanicError and a cancelled ctx aborts between per-thread chunks.
func (ix *Index) pickCtx(ctx context.Context, m metrics.Metric, vals []metrics.PrimaryValues, threads int) (Result, error) {
	nn := ix.h.NumNodes()
	stats := ix.Stats()
	scores := make([]float64, nn)
	p := par.Threads(threads)
	type best struct {
		node  hierarchy.NodeID
		score float64
	}
	bests := make([]best, p)
	err := par.ForErr(ctx, p, p, func(tlo, thi int) error {
		for t := tlo; t < thi; t++ {
			b := best{node: hierarchy.Nil}
			for i := t * nn / p; i < (t+1)*nn/p; i++ {
				s := m.Score(vals[i], stats)
				scores[i] = s
				if b.node == hierarchy.Nil || s > b.score {
					b = best{hierarchy.NodeID(i), s}
				}
			}
			bests[t] = b
		}
		return nil
	})
	if err != nil {
		return Result{Node: hierarchy.Nil}, err
	}
	win := best{node: hierarchy.Nil}
	for _, b := range bests {
		if b.node == hierarchy.Nil {
			continue
		}
		if win.node == hierarchy.Nil || b.score > win.score {
			win = b
		}
	}
	return Result{
		Node:   win.node,
		K:      ix.h.K[win.node],
		Score:  win.score,
		Values: vals[win.node],
		Scores: scores,
	}, nil
}

// SearchConstrained is Search restricted to k-cores whose vertex count
// lies in [minSize, maxSize] (maxSize <= 0 means unbounded) — the
// size-constrained variant §VI mentions among the k-core problems PBKS
// serves. It returns Node == hierarchy.Nil when no k-core satisfies the
// constraint.
func (ix *Index) SearchConstrained(m metrics.Metric, minSize, maxSize int64, threads int) Result {
	nn := ix.h.NumNodes()
	if nn == 0 {
		return Result{Node: hierarchy.Nil}
	}
	var vals []metrics.PrimaryValues
	if m.Kind() == metrics.TypeA {
		vals = ix.PrimaryA(threads)
	} else {
		vals = ix.PrimaryB(threads)
	}
	stats := ix.Stats()
	scores := make([]float64, nn)
	best := hierarchy.Nil
	for i := 0; i < nn; i++ {
		if vals[i].N < minSize || (maxSize > 0 && vals[i].N > maxSize) {
			scores[i] = math.Inf(-1)
			continue
		}
		scores[i] = m.Score(vals[i], stats)
		if best == hierarchy.Nil || scores[i] > scores[best] {
			best = hierarchy.NodeID(i)
		}
	}
	if best == hierarchy.Nil {
		return Result{Node: hierarchy.Nil, Scores: scores}
	}
	return Result{
		Node:   best,
		K:      ix.h.K[best],
		Score:  scores[best],
		Values: vals[best],
		Scores: scores,
	}
}

// SearchConstrainedCtx is SearchConstrained with failure containment and
// cooperative cancellation: a worker panic inside either primary-value
// kernel surfaces as a *par.PanicError instead of crashing, and a
// cancelled ctx (nil means background) aborts the kernels at their chunk
// boundaries and the scoring scan between strides. This is the variant a
// resident query server calls with a per-request deadline.
func (ix *Index) SearchConstrainedCtx(ctx context.Context, m metrics.Metric, minSize, maxSize int64, threads int) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	nn := ix.h.NumNodes()
	if nn == 0 {
		return Result{Node: hierarchy.Nil}, ctx.Err()
	}
	var vals []metrics.PrimaryValues
	var err error
	if m.Kind() == metrics.TypeA {
		vals, err = ix.PrimaryACtx(ctx, threads)
	} else {
		vals, err = ix.PrimaryBCtx(ctx, threads)
	}
	if err != nil {
		return Result{Node: hierarchy.Nil}, err
	}
	stats := ix.Stats()
	scores := make([]float64, nn)
	best := hierarchy.Nil
	const stride = 1 << 14 // ctx poll granularity of the scoring scan
	for i := 0; i < nn; i++ {
		if i%stride == 0 {
			if err := ctx.Err(); err != nil {
				return Result{Node: hierarchy.Nil}, err
			}
		}
		if vals[i].N < minSize || (maxSize > 0 && vals[i].N > maxSize) {
			scores[i] = math.Inf(-1)
			continue
		}
		scores[i] = m.Score(vals[i], stats)
		if best == hierarchy.Nil || scores[i] > scores[best] {
			best = hierarchy.NodeID(i)
		}
	}
	if best == hierarchy.Nil {
		return Result{Node: hierarchy.Nil, Scores: scores}, nil
	}
	return Result{
		Node:   best,
		K:      ix.h.K[best],
		Score:  scores[best],
		Values: vals[best],
		Scores: scores,
	}, nil
}

// BestPerLevel returns, for every coreness level k with at least one tree
// node, the best-scoring k-core at that level — the per-k view behind the
// §VI "finding the best k" analyses. The slice is indexed by k; levels
// with no k-core have Node == hierarchy.Nil.
func (ix *Index) BestPerLevel(m metrics.Metric, threads int) []Result {
	out := make([]Result, ix.kmax+1)
	for k := range out {
		out[k].Node = hierarchy.Nil
	}
	nn := ix.h.NumNodes()
	if nn == 0 {
		return out
	}
	var vals []metrics.PrimaryValues
	if m.Kind() == metrics.TypeA {
		vals = ix.PrimaryA(threads)
	} else {
		vals = ix.PrimaryB(threads)
	}
	stats := ix.Stats()
	for i := 0; i < nn; i++ {
		k := ix.h.K[i]
		s := m.Score(vals[i], stats)
		if out[k].Node == hierarchy.Nil || s > out[k].Score {
			out[k] = Result{Node: hierarchy.NodeID(i), K: k, Score: s, Values: vals[i]}
		}
	}
	return out
}
