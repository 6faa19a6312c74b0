// Package core implements the paper's primary contribution: PHCD, the
// first parallel algorithm for hierarchical core decomposition (§III).
//
// PHCD abandons LCPS's inherently sequential priority search (the problem
// is P-complete, Theorem 1). Instead it adds the k-shells to an initially
// empty graph in descending coreness order and grows the HCD bottom-up,
// maintaining component connectivity — and each component's pivot, the
// vertex of minimum vertex rank — in a concurrent union-find. Per level k
// it runs the four barrier-separated steps of Algorithm 2:
//
//	Step 1: for every k-shell vertex, record the pivots of the adjacent
//	        deeper cores (kpc_pivot) — these will become children.
//	Step 2: union every k-shell vertex with its neighbors of coreness
//	        >= k, merging deeper cores into the new k-cores.
//	Step 3: every component now has a k-shell pivot; one tree node is
//	        created per pivot and the k-shell vertices are grouped into
//	        the nodes by their pivots.
//	Step 4: each recorded deeper-core pivot now lives in a component whose
//	        pivot owns a new k-core node: link parent and child.
//
// Total work is O(n√p + m·α(n) + F), near-linear in m (§III-D).
//
// Steps 1-2 accept an optional shellidx.Layout: with the coreness-ordered
// adjacency, the per-edge filters "c(u) > k" / "c(u) >= k" become O(1)
// prefix subslices and the level loop never visits a shallower neighbor,
// cutting the total edge work from 2m visits (every edge from both sides)
// to m (each edge only from its lower-coreness side). Step 3 groups the
// shell with a par.GroupBy prefix-sum scatter instead of atomic cursors,
// which both removes the contended counters and makes the fill order of
// h.Vertices deterministic (see PHCDWithLayout).
//
// The package also provides the two comparison baselines of Table III: LB,
// the lower-bound cost of any union-find-based construction (one union per
// edge, nothing else), and DivideConquer, the partition-merge alternative
// of §III-E whose RC-based merge the paper shows to be uncompetitive.
package core

import (
	"context"
	"sort"
	"sync/atomic"

	"hcd/internal/coredecomp"
	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/obs"
	"hcd/internal/par"
	"hcd/internal/shellidx"
	"hcd/internal/unionfind"
)

// PHCD constructs the HCD of g in parallel using `threads` goroutines
// (0 = GOMAXPROCS). core must be g's core decomposition (e.g. from
// coredecomp.Parallel). Implements Algorithm 2. Equivalent to
// PHCDWithLayout with a nil layout; callers that already hold a
// shellidx.Layout for (g, core) — e.g. to share with search.NewIndex —
// should pass it via PHCDWithLayout instead.
func PHCD(g *graph.Graph, core []int32, threads int) *hierarchy.HCD {
	return PHCDWithLayout(g, core, nil, threads)
}

// PHCDWithLayout is PHCD over a prebuilt coreness-ordered adjacency
// layout (shellidx.Build for the same g and core; nil falls back to
// filtered scans of the raw adjacency). The layout eliminates the
// shallower-neighbor half of every level's edge scan.
//
// The output is deterministic: node ids, h.Vertices contents and order,
// and h.Children order are identical for every thread count (including
// the serial path) and every run. Per node, h.Vertices lists the shell
// vertices in ascending id order.
//
// Thin wrapper over PHCDCtx; a contained worker panic re-raises on the
// calling goroutine.
func PHCDWithLayout(g *graph.Graph, core []int32, lay *shellidx.Layout, threads int) *hierarchy.HCD {
	h, err := PHCDCtx(context.Background(), g, core, lay, threads)
	if err != nil {
		panic(err)
	}
	return h
}

// PHCDCtx is PHCDWithLayout with failure containment and cooperative
// cancellation: a panic inside any of the four per-level steps — in a
// worker goroutine or on the coordinating path — surfaces as a
// *par.PanicError, and a cancelled ctx aborts the level loop at the next
// level boundary (there are kmax+1 levels, so cancellation latency is one
// level's work). On error the partially-built hierarchy is discarded;
// every worker has been joined before PHCDCtx returns.
func PHCDCtx(ctx context.Context, g *graph.Graph, core []int32, lay *shellidx.Layout, threads int) (h *hierarchy.HCD, err error) {
	defer func() {
		if r := recover(); r != nil {
			h, err = nil, par.AsPanicError(r)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	n := g.NumVertices()
	h = &hierarchy.HCD{TID: make([]hierarchy.NodeID, n)}
	for i := range h.TID {
		h.TID[i] = hierarchy.Nil
	}
	if n == 0 {
		return h, ctx.Err()
	}
	p := par.Threads(threads)

	// Algorithm 1: vertex ranks and the k-shell index. A layout was
	// scattered from them and keeps them.
	var rank *coredecomp.Ranking
	if lay != nil {
		rank = lay.Ranking()
	} else {
		rank = coredecomp.RankVertices(core, p)
	}

	if p == 1 {
		// The sequential version of PHCD (§V-B compares it against LCPS):
		// same four steps, but over the serial union-find with in-union
		// pivot maintenance — no atomics, no barriers.
		sp := obs.StartSpan("phcd.serial")
		defer sp.End()
		if err := phcdSerial(ctx, g, core, rank, lay, h); err != nil {
			return nil, err
		}
		return h, nil
	}
	sp := obs.StartSpan("phcd.parallel")
	defer sp.End()

	// Union-find with pivot (§III-B). Linking by vertex rank makes every
	// set's root its pivot; see the unionfind package comment for the
	// equivalence argument.
	uf := unionfind.NewConcurrent(n, rank.Rank)

	// inKpc[v] guards the "add pvt to kpc_pivot if not exists" of Step 1,
	// reset after every level.
	inKpc := make([]atomic.Bool, n)

	newNode := func(k int32) hierarchy.NodeID {
		id := hierarchy.NodeID(len(h.K))
		h.K = append(h.K, k)
		h.Parent = append(h.Parent, hierarchy.Nil)
		h.Children = append(h.Children, nil)
		h.Vertices = append(h.Vertices, nil)
		return id
	}

	kpcLocal := make([][]int32, p)
	pivLocal := make([][]int32, p)
	type link struct{ child, pivot int32 }
	linkLocal := make([][]link, p)
	links := make([]link, 0, 64)
	// nodeIdx[i] = level-local node index of shell[i], the GroupBy key.
	nodeIdx := make([]int32, n)

	for k := rank.KMax; k >= 0; k-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		shell := rank.Shell(k)
		ns := len(shell)
		if ns == 0 {
			continue
		}
		// Per-level and per-step trace spans (an errored level's open
		// spans are dropped, never recorded).
		lsp := obs.StartSpanArg("phcd.level", int64(k))

		// Step 1: find the deeper-core pivots that will merge with this
		// shell. Must complete before any Step 2 union (par.For barriers).
		ssp := obs.StartSpan("phcd.step1")
		err := par.ForErr(ctx, p, p, func(tlo, thi int) error {
			faultinject.Maybe("phcd.step1")
			for t := tlo; t < thi; t++ {
				local := kpcLocal[t][:0]
				for i := t * ns / p; i < (t+1)*ns/p; i++ {
					v := shell[i]
					deeper, filtered := g.Neighbors(v), true
					if lay != nil {
						deeper, filtered = lay.Deeper(v), false
					}
					for _, u := range deeper {
						if filtered && core[u] <= k {
							continue
						}
						pvt := uf.Find(u)
						// Cheap read before the CAS: most deeper
						// neighbors share a few pivots, so the flag is
						// usually already set.
						if !inKpc[pvt].Load() && inKpc[pvt].CompareAndSwap(false, true) {
							local = append(local, pvt)
						}
					}
				}
				kpcLocal[t] = local
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ssp.End()

		// Step 2: connect the shell to everything of coreness >= k. For
		// same-shell edges one direction suffices (union is symmetric);
		// with the layout, the same-shell segment is id-sorted, so the
		// u > v half is the suffix past a binary search.
		ssp = obs.StartSpan("phcd.step2")
		err = par.ForErr(ctx, p, p, func(tlo, thi int) error {
			faultinject.Maybe("phcd.step2")
			for t := tlo; t < thi; t++ {
				for i := t * ns / p; i < (t+1)*ns/p; i++ {
					v := shell[i]
					if lay != nil {
						for _, u := range lay.Deeper(v) {
							uf.Union(v, u)
						}
						same := lay.Same(v)
						for _, u := range same[suffixAfter(same, v):] {
							uf.Union(v, u)
						}
						continue
					}
					for _, u := range g.Neighbors(v) {
						if core[u] > k || (core[u] == k && u > v) {
							uf.Union(v, u)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ssp.End()

		// Step 3: one node per pivot; group shell vertices by pivot.
		// Every component touched this level has a k-shell pivot, and in
		// the rank-linked union-find the pivot is the root, so the pivots
		// are exactly the shell vertices that are their own root.
		ssp = obs.StartSpan("phcd.step3")
		err = par.ForErr(ctx, p, p, func(tlo, thi int) error {
			faultinject.Maybe("phcd.step3")
			for t := tlo; t < thi; t++ {
				local := pivLocal[t][:0]
				for i := t * ns / p; i < (t+1)*ns/p; i++ {
					v := shell[i]
					if uf.Find(v) == v {
						local = append(local, v)
					}
				}
				pivLocal[t] = local
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Concatenating the per-thread pivot lists in thread order visits
		// the pivots in ascending shell position — the chunks are
		// contiguous — so node ids do not depend on the thread count. A
		// pivot is the minimum-rank (= minimum-id) member of its group,
		// i.e. its group's first vertex in shell order, which is exactly
		// the order the serial path first encounters (and numbers) the
		// groups in.
		firstNode := len(h.K)
		for t := 0; t < p; t++ {
			for _, pvt := range pivLocal[t] {
				h.TID[pvt] = newNode(k)
			}
		}
		numNew := len(h.K) - firstNode
		// Group the shell by node with a deterministic prefix-sum scatter
		// (no atomic sizes/cursors): GroupBy keeps each group in ascending
		// shell position = ascending id, so every node's vertex list is
		// filled exactly as the serial path appends it.
		err = par.ForEachErr(ctx, ns, p, func(i int) error {
			v := shell[i]
			pvt := uf.Find(v)
			id := h.TID[pvt]
			if v != pvt { // the pivot's own tid was already set serially
				h.TID[v] = id
			}
			nodeIdx[i] = int32(int(id) - firstNode)
			return nil
		})
		if err != nil {
			return nil, err
		}
		starts, order := par.GroupBy(ns, numNew, p, func(i int) int32 { return nodeIdx[i] })
		slab := make([]int32, ns)
		err = par.ForEachErr(ctx, ns, p, func(i int) error { slab[i] = shell[order[i]]; return nil })
		if err != nil {
			return nil, err
		}
		for j := 0; j < numNew; j++ {
			// Full slice expressions keep later appends to one node's list
			// from clobbering its slab neighbor.
			h.Vertices[firstNode+j] = slab[starts[j]:starts[j+1]:starts[j+1]]
		}
		ssp.End()

		// Step 4: the recorded deeper-core pivots hang under the new
		// nodes. The Finds run in parallel; the links are applied serially
		// in ascending child order (which thread discovered a pivot in
		// Step 1 is scheduling-dependent, so the per-thread lists are
		// merged and sorted to keep h.Children deterministic).
		ssp = obs.StartSpan("phcd.step4")
		err = par.ForErr(ctx, p, p, func(tlo, thi int) error {
			faultinject.Maybe("phcd.step4")
			for t := tlo; t < thi; t++ {
				local := linkLocal[t][:0]
				for _, v := range kpcLocal[t] {
					local = append(local, link{child: v, pivot: uf.Find(v)})
					inKpc[v].Store(false)
				}
				linkLocal[t] = local
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		links = links[:0]
		for t := 0; t < p; t++ {
			links = append(links, linkLocal[t]...)
		}
		sort.Slice(links, func(a, b int) bool { return links[a].child < links[b].child })
		for _, l := range links {
			ch := h.TID[l.child]
			pa := h.TID[l.pivot]
			h.Parent[ch] = pa
			h.Children[pa] = append(h.Children[pa], ch)
		}
		ssp.End()
		lsp.End()
	}
	return h, nil
}

// suffixAfter returns the first index i with list[i] > v, for an
// ascending-sorted list. Hand-rolled binary search so it inlines into the
// level loop (sort.Search takes a func value).
func suffixAfter(list []int32, v int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// LB is Table III's lower-bound baseline: the cost of a union-find-based
// construction stripped to its minimum — one union per edge of the graph
// over the same rank-linked structure, with no hierarchy bookkeeping. It
// returns the number of connected components so the work cannot be
// optimised away.
func LB(g *graph.Graph, core []int32, threads int) int {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	p := par.Threads(threads)
	rank := coredecomp.RankVertices(core, p)
	if p == 1 {
		// Serial lower bound over the serial union-find, matching the
		// structure phcdSerial runs on.
		uf := unionfind.New(n, rank.Rank)
		for v := int32(0); v < int32(n); v++ {
			rv := uf.Find(v)
			for _, u := range g.Neighbors(v) {
				if u > v {
					rv = uf.UnionRoot(rv, u)
				}
			}
		}
		count := 0
		for v := int32(0); v < int32(n); v++ {
			if uf.Find(v) == v {
				count++
			}
		}
		return count
	}
	uf := unionfind.NewConcurrent(n, rank.Rank)
	//hcdlint:allow panic-safety LB is Table III's lower-bound baseline; wrapping it in the Err machinery would add the very bookkeeping the bound exists to exclude
	par.ForEach(n, p, func(i int) {
		v := int32(i)
		for _, u := range g.Neighbors(v) {
			if u > v {
				uf.Union(v, u)
			}
		}
	})
	count := 0
	for v := int32(0); v < int32(n); v++ {
		if uf.Find(v) == v {
			count++
		}
	}
	return count
}
