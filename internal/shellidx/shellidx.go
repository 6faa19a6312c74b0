// Package shellidx provides the coreness-ordered adjacency layout: a
// one-shot preprocessing pass over a graph and its core decomposition that
// re-orders every vertex's adjacency list by descending neighbor coreness
// (ties broken by ascending vertex id) and records per-vertex split
// offsets. After the pass, the three neighbor classes PHCD and PBKS
// repeatedly filter for —
//
//	deeper:    {u ∈ N(v) : c(u) > c(v)}   (the k-core prefix at v's level)
//	same:      {u ∈ N(v) : c(u) = c(v)}   (same-shell neighbors, id-sorted)
//	shallower: {u ∈ N(v) : c(u) < c(v)}   (grouped by coreness, descending)
//
// — are O(1) subslice lookups instead of per-call scans, and algorithms
// that walk "neighbors of coreness >= k" (PHCD Steps 1-2 at k = c(v),
// Algorithm 5's per-level triplet binning) early-exit on a contiguous
// prefix. The layout is the semisorted-adjacency tool of the parallel
// nucleus/k-core decomposition literature (Shi-Dhulipala-Shun; Liu-Dong
// et al.), applied to the paper's HCD pipeline.
//
// The layout is deterministic: byte-identical for every thread count,
// because each vertex's re-ordered list is a pure function of (graph,
// core). Build it once per (graph, core) pair and share it across PHCD and
// every search Index; see DESIGN.md ("When to pay for the layout") for the
// amortisation argument.
package shellidx

import (
	"context"

	"hcd/internal/coredecomp"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// Layout is the coreness-ordered adjacency of one (graph, core) pair. The
// zero value is an empty layout; construct with Build.
type Layout struct {
	offsets []int64 // aliases the graph's CSR offsets (len n+1)
	adj     []int32 // len 2m; per vertex: descending coreness, ties asc id
	gt      []int32 // gt[v] = |{u ∈ N(v) : c(u) > c(v)}|
	eq      []int32 // eq[v] = |{u ∈ N(v) : c(u) = c(v)}|
	rank    *coredecomp.Ranking
}

// NumVertices returns the number of vertices the layout covers.
func (l *Layout) NumVertices() int {
	if len(l.offsets) == 0 {
		return 0
	}
	return len(l.offsets) - 1
}

// Deeper returns v's neighbors of strictly greater coreness. The slice
// aliases the layout and must not be modified.
func (l *Layout) Deeper(v int32) []int32 {
	off := l.offsets[v]
	return l.adj[off : off+int64(l.gt[v])]
}

// Same returns v's neighbors of equal coreness, sorted by ascending id.
func (l *Layout) Same(v int32) []int32 {
	off := l.offsets[v] + int64(l.gt[v])
	return l.adj[off : off+int64(l.eq[v])]
}

// AtLeast returns v's neighbors of coreness >= c(v) — the prefix PHCD's
// Step 2 unions at level k = c(v).
func (l *Layout) AtLeast(v int32) []int32 {
	off := l.offsets[v]
	return l.adj[off : off+int64(l.gt[v])+int64(l.eq[v])]
}

// Shallower returns v's neighbors of strictly lower coreness, grouped by
// coreness in descending order (each group sorted by ascending id).
func (l *Layout) Shallower(v int32) []int32 {
	off := l.offsets[v] + int64(l.gt[v]) + int64(l.eq[v])
	return l.adj[off:l.offsets[v+1]]
}

// Reordered returns v's full re-ordered adjacency list.
func (l *Layout) Reordered(v int32) []int32 {
	return l.adj[l.offsets[v]:l.offsets[v+1]]
}

// DeeperCount returns |Deeper(v)| without materialising the slice.
func (l *Layout) DeeperCount(v int32) int32 { return l.gt[v] }

// SameCount returns |Same(v)| without materialising the slice.
func (l *Layout) SameCount(v int32) int32 { return l.eq[v] }

// GtCounts returns the per-vertex deeper-neighbor counts — the gt_k array
// of the PBKS preprocessing (§IV-A). Aliases the layout; read-only.
func (l *Layout) GtCounts() []int32 { return l.gt }

// EqCounts returns the per-vertex equal-coreness counts (eq_k of §IV-A).
// Aliases the layout; read-only.
func (l *Layout) EqCounts() []int32 { return l.eq }

// Ranking returns the vertex ranking the layout was built from, so a
// consumer of the layout (PHCD) need not rank the vertices again. Shared
// with the layout; read-only.
func (l *Layout) Ranking() *coredecomp.Ranking { return l.rank }

// Bytes returns the layout's exclusive storage footprint in bytes: the
// reordered adjacency (4·2m), the gt/eq count arrays (4n each) and the
// retained ranking (Order and Rank at 4n each, ShellStart at 8 bytes per
// level). The offsets array is excluded — it aliases the graph's CSR
// offsets and is already counted by graph.Bytes; summing the two never
// double-counts.
func (l *Layout) Bytes() int64 {
	b := int64(len(l.adj))*4 + int64(len(l.gt))*4 + int64(len(l.eq))*4
	if r := l.rank; r != nil {
		b += int64(len(r.Order))*4 + int64(len(r.Rank))*4 + int64(len(r.ShellStart))*8
	}
	return b
}

// Build constructs the layout with the given number of threads
// (0 = GOMAXPROCS). core must be g's core decomposition and r its vertex
// ranking (coredecomp.RankVertices(core, ...)); the ranking is reused for
// the degeneracy bound and for the serial fast path, and the layout keeps
// it (see Ranking). O(n + m) work.
func Build(g *graph.Graph, core []int32, r *coredecomp.Ranking, threads int) *Layout {
	l, err := BuildCtx(context.Background(), g, core, r, threads)
	if err != nil {
		panic(err)
	}
	return l
}

// BuildCtx is Build with failure containment and cooperative cancellation:
// a worker panic in the parallel scatter surfaces as a *par.PanicError
// instead of crashing the process, and a cancelled ctx (nil means
// background) aborts the scatter at its internal chunk boundaries.
func BuildCtx(ctx context.Context, g *graph.Graph, core []int32, r *coredecomp.Ranking, threads int) (*Layout, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer obs.StartSpan("shellidx.build").End()
	n := g.NumVertices()
	l := &Layout{
		offsets: g.Offsets(),
		adj:     make([]int32, 2*g.NumEdges()),
		gt:      make([]int32, n),
		eq:      make([]int32, n),
		rank:    r,
	}
	if n == 0 {
		return l, ctx.Err()
	}
	if par.Threads(threads) == 1 {
		l.buildSerial(g, r)
		return l, ctx.Err()
	}
	if err := l.buildParallel(ctx, g, core, r, threads); err != nil {
		return nil, err
	}
	return l, nil
}

// buildSerial fills the layout with a single cache-friendly scatter over
// the k-shell index: walking sources in descending shell order (ascending
// id within a shell) and appending each source to its neighbors' cursors
// yields every destination list already in (descending coreness, ascending
// id) order — no per-vertex sorting at all. One pass, O(m).
//
// The scatter compares no corenesses. When u's own shell starts, every
// source so far was deeper than u, so gt[u] is how far u's cursor has
// moved; the cursor's further growth across the shell is eq[u].
func (l *Layout) buildSerial(g *graph.Graph, r *coredecomp.Ranking) {
	n := g.NumVertices()
	cur := make([]int64, n)
	copy(cur, l.offsets[:n])
	for k := r.KMax; k >= 0; k-- {
		shell := r.Shell(k)
		for _, u := range shell {
			l.gt[u] = int32(cur[u] - l.offsets[u])
		}
		for _, v := range shell {
			for _, u := range g.Neighbors(v) {
				l.adj[cur[u]] = v
				cur[u]++
			}
		}
		for _, u := range shell {
			l.eq[u] = int32(cur[u]-l.offsets[u]) - l.gt[u]
		}
	}
}

// buildParallel fills the layout vertex-by-vertex: each vertex's list is
// counting-sorted by neighbor coreness with per-chunk scratch (reset via a
// touched-coreness list, so cost is O(d(v) + distinct corenesses), not
// O(kmax)). Chunked dynamically because per-vertex work follows degree.
func (l *Layout) buildParallel(ctx context.Context, g *graph.Graph, core []int32, r *coredecomp.Ranking, threads int) error {
	n := g.NumVertices()
	return par.ForChunkedErr(ctx, n, threads, 512, func(lo, hi int) error {
		cnt := make([]int32, r.KMax+1)
		cur := make([]int32, r.KMax+1)
		var touched []int32
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			nb := g.Neighbors(v)
			if len(nb) == 0 {
				continue
			}
			touched = touched[:0]
			for _, u := range nb {
				c := core[u]
				if cnt[c] == 0 {
					touched = append(touched, c)
				}
				cnt[c]++
			}
			// Insertion-sort the (few) distinct corenesses descending.
			for i := 1; i < len(touched); i++ {
				c := touched[i]
				j := i - 1
				for j >= 0 && touched[j] < c {
					touched[j+1] = touched[j]
					j--
				}
				touched[j+1] = c
			}
			kv := core[v]
			var run, gtc, eqc int32
			for _, c := range touched {
				cur[c] = run
				run += cnt[c]
				if c > kv {
					gtc += cnt[c]
				} else if c == kv {
					eqc = cnt[c]
				}
			}
			off := l.offsets[v]
			for _, u := range nb {
				c := core[u]
				l.adj[off+int64(cur[c])] = u
				cur[c]++
			}
			for _, c := range touched {
				cnt[c] = 0
			}
			l.gt[v] = gtc
			l.eq[v] = eqc
		}
		return nil
	})
}
