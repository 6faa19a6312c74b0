package search

import (
	"context"
	"sync/atomic"

	"hcd/internal/faultinject"
	"hcd/internal/metrics"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// PrimaryB computes, for every tree node, the Type B primary values —
// Δ(S) triangles and t(S) triplets — of the node's original k-core
// (Algorithm 5), alongside the Type A values (so any metric mixing the two
// still works).
//
// Counting is vertex-centric: a motif lies in exactly the k-cores that
// contain its endpoint of lowest coreness, so it is charged once, to that
// endpoint's tree node, and bottom-up accumulation spreads it over the
// enclosing cores.
//
//   - Triangles are enumerated exactly once, in the total order
//     ≺ = (coreness, degree, id). Each vertex v marks its forward
//     neighbors N+(v) = {u ∈ N(v) : v ≺ u}, then for every u ∈ N+(v)
//     counts the marked members of N+(u). A triangle a ≺ b ≺ c is found
//     at v = a, u = b, w = c and nowhere else: v must be its ≺-lowest
//     vertex (both others lie in N+(v)) and u its middle one (w ∈ N+(u)).
//     The count is charged to a's node. Because ≺ refines coreness, a has
//     the triangle's lowest coreness; any other endpoint of that coreness
//     is adjacent to a, so it lies in the same shell component — the same
//     tree node. The charge therefore lands on the node the paper's
//     lowest-vertex-rank rule picks.
//   - Work: Σ_v Σ_{u ∈ N+(v)} |N+(u)|. N+(u) holds u's deeper neighbors
//     (at most c(u): u had at most c(u) neighbors left when it was
//     peeled) and same-shell neighbors of degree ≥ d(u) (at most eq(u),
//     and at most 2m/d(u) vertices have degree ≥ d(u)), so
//     |N+(u)| ≤ c(u) + min(eq(u), 2m/d(u)) ≤ 2√(2m) and the triangle pass
//     is O(m^1.5). Ordering a shell by id alone would break the bound: a
//     star's centre would carry half its leaves forward.
//   - Forward lists: N+(v) is one slice, adj[off[v]:off[v+1]], of a CSR
//     the Index builds on the first Type-B call and keeps (forwardLists).
//     With a layout it is the layout's deeper segment followed by the
//     same-shell neighbors above v; without one, the filtered adjacency.
//     It costs 8(n+1) bytes of offsets plus 4 per edge, and depends only
//     on (g, core), so every later query, whatever its metric, reads it.
//   - Triplets centered at v: C(gt,2) of them have both endpoints at
//     coreness >= c(v) and are charged to v's node; for each lower level k
//     with cnt_k neighbors in Hk, C(cnt_k,2) + gt_k·cnt_k triplets join at
//     level k and are charged to any Hk-neighbor's node (they all share
//     it, being connected through v in G[c >= k]) — O(m) work. With a
//     layout, the per-level counts are read off the shallower segment's
//     coreness runs directly; without one they are bucketed into scratch
//     arrays.
//
// Workers count in countChunk-vertex chunks taken from shared cursors,
// so a run of heavy vertices does not hold one worker while the others
// idle: a vertex's counting work is Σ_{u ∈ N+(v)} |N+(u)|, which no
// static split by degree balances. Worker t starts in the t-th of p
// edge-balanced vertex ranges, which keeps each worker's reads mostly in
// its own part of the lists, and then helps the ranges after it. Each
// worker accumulates into a private copy of the node table and the
// copies are summed into the Type A rows afterwards — no atomic traffic
// on hot nodes, and the totals are exact sums, so the result is the same
// whichever worker took which chunk. The same bottom-up fold as PrimaryA
// then yields per-core totals of all five values. Total work O(m^1.5),
// matching the best sequential bound for triangle counting:
// work-efficient.
func (ix *Index) PrimaryB(threads int) []metrics.PrimaryValues {
	out, err := ix.PrimaryBCtx(context.Background(), threads)
	if err != nil {
		panic(err)
	}
	return out
}

// countChunk is the number of vertices a counting worker takes from a
// range's cursor at a time, and so how often it polls ctx.
const countChunk = 1024

// PrimaryBCtx is PrimaryB with failure containment: worker panics surface
// as a *par.PanicError, and a cancelled ctx aborts the counting loop
// within one chunk (Type B is the longest-running kernel, so it cannot
// wait for the whole pass). A failed or cancelled first call leaves no
// forward lists behind; the next call builds them again.
func (ix *Index) PrimaryBCtx(ctx context.Context, threads int) ([]metrics.PrimaryValues, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer obs.StartSpanCtx(ctx, "search.typeb").End()
	n := ix.g.NumVertices()
	nn := ix.h.NumNodes()
	p := par.Threads(threads)

	fw, err := ix.forwardLists(ctx, p)
	if err != nil {
		return nil, err
	}

	locals := make([][]int64, p)
	bounds := ix.edgeBalancedBounds(p)
	next := make([]atomic.Int64, p) // chunk cursor of each range
	err = par.ForErr(ctx, p, p, func(tlo, thi int) error {
		faultinject.Maybe("search.typeb")
		for t := tlo; t < thi; t++ {
			// Per-worker scratch and output table.
			local := make([]int64, nn*2) // rows: [triangles, triplets]
			mark := make([]int32, n)     // mark[w] == v+1  <=>  w in N+(v)
			var cnt, rep []int32
			if ix.lay == nil {
				cnt = make([]int32, ix.kmax+1)
				rep = make([]int32, ix.kmax+1)
			}
			// Drain range t first, then help the ranges after it.
			for r := 0; r < p; r++ {
				k := (t + r) % p
				for {
					if err := ctx.Err(); err != nil {
						return err
					}
					lo := int64(bounds[k]) + next[k].Add(countChunk) - countChunk
					if lo >= int64(bounds[k+1]) {
						break
					}
					hi := min(lo+countChunk, int64(bounds[k+1]))
					for v := int32(lo); v < int32(hi); v++ {
						ix.countVertex(v, fw, mark, cnt, rep, local)
					}
				}
			}
			locals[t] = local
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The motif totals join the Type A rows, so one fold serves both.
	vals, err := ix.rowsCtx(ctx, threads)
	if err != nil {
		return nil, err
	}
	err = par.ForEachErr(ctx, nn, p, func(i int) error {
		var tri, trip int64
		for _, local := range locals {
			tri += local[i*2]
			trip += local[i*2+1]
		}
		vals[i].Triangles = tri
		vals[i].Triplets = trip
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ix.foldCtx(ctx, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// forward is the forward adjacency under ≺ as one CSR: N+(v) is
// adj[off[v]:off[v+1]].
type forward struct {
	off []int64 // len n+1
	adj []int32 // len m: every edge is forward from exactly one end
}

// list returns N+(v).
func (f *forward) list(v int32) []int32 { return f.adj[f.off[v]:f.off[v+1]] }

// forwardLists returns the index's forward lists, building them at p
// threads on the first call. The lists are a pure function of (g, core)
// and the layout's presence, so they are built once per Index and shared
// by every later Type-B query. A build that fails or sees a cancelled ctx
// publishes nothing, so the next call tries again. Two racing first calls
// may both build; the first to publish wins and the other's copy is
// dropped, and neither waits on a lock it could not cancel.
func (ix *Index) forwardLists(ctx context.Context, p int) (*forward, error) {
	if f := ix.fw.Load(); f != nil {
		return f, nil
	}
	f := new(forward)
	err := ix.forwardCtx(ctx, f, p)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	ix.fw.CompareAndSwap(nil, f)
	return ix.fw.Load(), nil
}

// above writes v's forward list N+(v) = {u ∈ N(v) : v ≺ u}, in the
// triangle order ≺ = (coreness, degree, id), to dst (nil only counts) and
// returns its length. With a layout the deeper segment is forward as a
// whole and is copied in first; only the same-shell segment is filtered,
// and no coreness needs reading. Without one the whole adjacency list is
// filtered.
func (ix *Index) above(v int32, dst []int32) int64 {
	nb, mixed := ix.g.Neighbors(v), ix.lay == nil
	var c int64
	if !mixed {
		deep := ix.lay.Deeper(v)
		if dst != nil {
			copy(dst, deep)
		}
		c = int64(len(deep))
		nb = ix.lay.Same(v)
	}
	cv, dv := ix.core[v], ix.g.Degree(v)
	for _, u := range nb {
		if mixed && ix.core[u] != cv {
			if ix.core[u] < cv {
				continue
			}
		} else if du := ix.g.Degree(u); du < dv || (du == dv && u < v) {
			continue
		}
		if dst != nil {
			dst[c] = u
		}
		c++
	}
	return c
}

// forwardCtx fills f with the forward lists in one count, prefix-sum and
// fill pass over p vertex ranges of equal adjacency volume: each range
// counts its vertices' entries into off, a serial pass turns the p range
// totals into start offsets, and each range fills its slice of adj,
// skipping empty lists, while turning its counts into offsets. The output
// is a pure function of the graph, so it is the same for every thread
// count. On error f is incomplete and must be dropped.
func (ix *Index) forwardCtx(ctx context.Context, f *forward, p int) error {
	defer obs.StartSpanCtx(ctx, "search.forward").End()
	n := ix.g.NumVertices()
	bounds := ix.edgeBalancedBounds(p)
	f.off = make([]int64, n+1)
	starts := make([]int64, p)
	err := par.ForErr(ctx, p, p, func(tlo, thi int) error {
		faultinject.Maybe("search.forward")
		for t := tlo; t < thi; t++ {
			var c int64
			for v := int32(bounds[t]); v < int32(bounds[t+1]); v++ {
				k := ix.above(v, nil)
				f.off[v+1] = k
				c += k
			}
			starts[t] = c
		}
		return nil
	})
	if err != nil {
		return err
	}
	var total int64
	for t, c := range starts {
		starts[t] = total
		total += c
	}
	f.adj = make([]int32, total)
	return par.ForErr(ctx, p, p, func(tlo, thi int) error {
		for t := tlo; t < thi; t++ {
			pos := starts[t]
			for v := int32(bounds[t]); v < int32(bounds[t+1]); v++ {
				if k := f.off[v+1]; k > 0 {
					ix.above(v, f.adj[pos:pos+k])
					pos += k
				}
				f.off[v+1] = pos
			}
		}
		return nil
	})
}

// countVertex adds vertex v's triangle and triplet contributions to vals,
// a table private to the calling worker (plain writes).
func (ix *Index) countVertex(v int32, fw *forward, mark, cnt, rep []int32, vals []int64) {
	g, core, h := ix.g, ix.core, ix.h

	// --- Triangles (Algorithm 5 lines 2-7) ---
	// Only those whose ≺-lowest vertex is v are found here.
	if nv := fw.list(v); len(nv) >= 2 {
		tag := v + 1
		for _, u := range nv {
			mark[u] = tag
		}
		var tri int64
		for _, u := range nv {
			for _, w := range fw.list(u) {
				if mark[w] == tag {
					tri++
				}
			}
		}
		vals[int(h.TID[v])*2] += tri
	}

	// --- Triplets centered at v (Algorithm 5 lines 8-15) ---
	// gt = |{u in N(v) : c(u) >= c(v)}| via the preprocessing.
	gt := int64(ix.gtK[v]) + int64(ix.eqK[v])
	vals[int(h.TID[v])*2+1] += gt * (gt - 1) / 2

	if ix.lay != nil {
		// The layout's shallower segment is already grouped by coreness in
		// descending order — exactly the level order the charging loop
		// needs — so each level is one contiguous run: no scratch arrays,
		// no O(kmax) sweep, just a walk over the d_lt(v) entries.
		sh := ix.lay.Shallower(v)
		for i := 0; i < len(sh); {
			c := core[sh[i]]
			j := i + 1
			for j < len(sh) && core[sh[j]] == c {
				j++
			}
			cc := int64(j - i)
			vals[int(h.TID[sh[i]])*2+1] += cc*(cc-1)/2 + gt*cc
			gt += cc
			i = j
		}
		return
	}

	cv := core[v]
	touched := false
	for _, u := range g.Neighbors(v) {
		if core[u] < cv {
			cnt[core[u]]++
			rep[core[u]] = u
			touched = true
		}
	}
	if touched {
		for k := cv - 1; k >= 0; k-- {
			if c := int64(cnt[k]); c > 0 {
				w := rep[k]
				vals[int(h.TID[w])*2+1] += c*(c-1)/2 + gt*c
				gt += c
				cnt[k] = 0
			}
		}
	}
}

// edgeBalancedBounds splits [0, n) into p contiguous vertex ranges with
// approximately equal total degree.
func (ix *Index) edgeBalancedBounds(p int) []int {
	n := ix.g.NumVertices()
	bounds := make([]int, p+1)
	total := 2 * ix.g.NumEdges()
	if n == 0 || total == 0 {
		for t := 0; t <= p; t++ {
			bounds[t] = t * n / p
		}
		return bounds
	}
	target := total / int64(p)
	var acc int64
	t := 1
	for v := 0; v < n && t < p; v++ {
		acc += int64(ix.g.Degree(int32(v)))
		if acc >= int64(t)*target {
			bounds[t] = v + 1
			t++
		}
	}
	for ; t < p; t++ {
		bounds[t] = n
	}
	bounds[p] = n
	return bounds
}
