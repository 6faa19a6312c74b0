package core

import (
	"context"
	"slices"

	"hcd/internal/coredecomp"
	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/shellidx"
	"hcd/internal/unionfind"
)

// phcdSerial is the single-thread specialisation of Algorithm 2: identical
// step structure, but running over the serial union-find (§III-B: parent
// pointer, size-based union, pivot stored at the cardinal element) with no
// atomic operations. This is the configuration Table III's "(1)" column
// measures against LCPS. With a layout, the fused scan touches only the
// coreness >= k prefix of each list — m edge visits total instead of 2m.
// A cancelled ctx aborts between levels; panics, including one injected
// at the per-level "phcd.serial" site, propagate to PHCDCtx's recovery.
//
// The level loop keeps node state flat: h.TID, the node levels h.K and
// the Step 4 links. h.Parent, h.Children and h.Vertices are filled once
// after the loop, the two lists as slabs cut per node.
func phcdSerial(ctx context.Context, g *graph.Graph, core []int32, rank *coredecomp.Ranking, lay *shellidx.Layout, h *hierarchy.HCD) error {
	n := g.NumVertices()
	uf := unionfind.New(n, rank.Rank)
	inKpc := make([]bool, n)
	kpc := make([]int32, 0, 64)
	// links holds every (child, parent) tree edge in the order Step 4
	// makes them: by level, then by ascending child pivot.
	type link struct{ child, parent hierarchy.NodeID }
	var links []link

	for k := rank.KMax; k >= 0; k-- {
		if err := ctx.Err(); err != nil {
			return err
		}
		shell := rank.Shell(k)
		if len(shell) == 0 {
			continue
		}
		faultinject.Maybe("phcd.serial")
		// Steps 1+2, fused into one edge scan (serial-only optimisation).
		// In Algorithm 2 the kpc_pivot collection (Step 1) finishes before
		// any union (Step 2); sequentially the same pivots are observed by
		// reading each edge's far-side pivot immediately before the union
		// that uses it: a deeper core C only ever merges into the growing
		// k-core through a union issued by some shell vertex adjacent to
		// C, and that vertex reads C's pivot (still of coreness > k) first.
		// Once merged, C's component's pivot is a k-shell vertex, so later
		// edges into C see coreness k and skip the record. Each edge costs
		// exactly one Find this way. The argument is order-independent, so
		// it survives the layout's segment-reordered iteration (all deeper
		// edges of a vertex before its same-shell edges).
		kpc = kpc[:0]
		if lay != nil {
			for _, v := range shell {
				rv := uf.Find(v)
				for _, u := range lay.Deeper(v) {
					ru := uf.Find(u)
					if pvt := uf.PivotOfRoot(ru); core[pvt] > k && !inKpc[pvt] {
						inKpc[pvt] = true
						kpc = append(kpc, pvt)
					}
					rv = uf.LinkRoots(rv, ru)
				}
				same := lay.Same(v)
				for _, u := range same[suffixAfter(same, v):] {
					rv = uf.LinkRoots(rv, uf.Find(u))
				}
			}
		} else {
			for _, v := range shell {
				rv := uf.Find(v)
				for _, u := range g.Neighbors(v) {
					if core[u] > k {
						ru := uf.Find(u)
						if pvt := uf.PivotOfRoot(ru); core[pvt] > k && !inKpc[pvt] {
							inKpc[pvt] = true
							kpc = append(kpc, pvt)
						}
						rv = uf.LinkRoots(rv, ru)
					} else if core[u] == k && u > v {
						rv = uf.LinkRoots(rv, uf.Find(u))
					}
				}
			}
		}
		// Step 3: one node per pivot, numbered in shell order.
		for _, v := range shell {
			pvt := uf.Pivot(v)
			id := h.TID[pvt]
			if id == hierarchy.Nil {
				id = hierarchy.NodeID(len(h.K))
				h.K = append(h.K, k)
				h.TID[pvt] = id
			}
			h.TID[v] = id
		}
		// Step 4: the recorded deeper pivots hang under the new nodes,
		// linked in ascending child order to match the parallel path's
		// deterministic h.Children (kpc discovery order depends on which
		// adjacency layout drove the scan).
		sortInt32(kpc)
		for _, v := range kpc {
			inKpc[v] = false
			links = append(links, link{child: h.TID[v], parent: h.TID[uf.Pivot(v)]})
		}
	}

	nn := len(h.K)
	// Vertices: a counting sort of rank.Order by node. Order lists each
	// shell by ascending id, so every node's run comes out id-sorted. In
	// the scatter off[t] advances from the start of node t's run to its
	// end, which is where node t+1's run starts. Full slice expressions
	// keep an append to one node's list from overwriting the next run.
	off := make([]int32, nn+1)
	for _, t := range h.TID {
		off[t+1]++
	}
	for t := 1; t <= nn; t++ {
		off[t] += off[t-1]
	}
	vslab := make([]int32, n)
	for _, v := range rank.Order {
		t := h.TID[v]
		vslab[off[t]] = v
		off[t]++
	}
	h.Vertices = make([][]int32, nn)
	lo := int32(0)
	for t, hi := range off[:nn] {
		h.Vertices[t] = vslab[lo:hi:hi]
		lo = hi
	}

	// Parent and Children: the links bucketed by parent, keeping their
	// order. A leaf's Children stays nil, as in the parallel path.
	h.Parent = make([]hierarchy.NodeID, nn)
	for t := range h.Parent {
		h.Parent[t] = hierarchy.Nil
	}
	clear(off)
	for _, l := range links {
		h.Parent[l.child] = l.parent
		off[l.parent+1]++
	}
	for t := 1; t <= nn; t++ {
		off[t] += off[t-1]
	}
	cslab := make([]hierarchy.NodeID, len(links))
	for _, l := range links {
		cslab[off[l.parent]] = l.child
		off[l.parent]++
	}
	h.Children = make([][]hierarchy.NodeID, nn)
	lo = 0
	for t, hi := range off[:nn] {
		if hi > lo {
			h.Children[t] = cslab[lo:hi:hi]
		}
		lo = hi
	}
	return nil
}

// sortInt32 insertion-sorts short slices in place (kpc lists are almost
// always tiny) and defers to slices.Sort otherwise.
func sortInt32(xs []int32) {
	if len(xs) >= 24 {
		slices.Sort(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}
