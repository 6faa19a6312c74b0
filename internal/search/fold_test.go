package search

import (
	"math/rand"
	"testing"

	corepkg "hcd/internal/core"
	"hcd/internal/coredecomp"
	"hcd/internal/gen"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/lcps"
	"hcd/internal/shellidx"
)

// hierarchies returns g's HCD from every constructor the fold must
// accept — PHCD, LCPS and the brute-force reference — plus the PHCD
// forest with its node ids shuffled, so that no numbering (PHCD happens
// to create children before parents) can stand in for a bottom-up order.
func hierarchies(g *graph.Graph, coreness []int32) map[string]*hierarchy.HCD {
	ph := corepkg.PHCD(g, coreness, 2)
	return map[string]*hierarchy.HCD{
		"phcd":          ph,
		"lcps":          lcps.Build(g, coreness),
		"brute":         hierarchy.BruteForce(g, coreness),
		"phcd-shuffled": shuffleNodes(ph, 11),
	}
}

// shuffleNodes returns a copy of h with its node ids relabelled by a
// seeded random permutation.
func shuffleNodes(h *hierarchy.HCD, seed int64) *hierarchy.HCD {
	nn := h.NumNodes()
	perm := rand.New(rand.NewSource(seed)).Perm(nn)
	id := func(i hierarchy.NodeID) hierarchy.NodeID {
		if i == hierarchy.Nil {
			return i
		}
		return hierarchy.NodeID(perm[i])
	}
	out := &hierarchy.HCD{
		K:        make([]int32, nn),
		Parent:   make([]hierarchy.NodeID, nn),
		Children: make([][]hierarchy.NodeID, nn),
		Vertices: make([][]int32, nn),
		TID:      make([]hierarchy.NodeID, len(h.TID)),
	}
	for i := 0; i < nn; i++ {
		j := perm[i]
		out.K[j] = h.K[i]
		out.Parent[j] = id(h.Parent[i])
		for _, c := range h.Children[i] {
			out.Children[j] = append(out.Children[j], id(c))
		}
		out.Vertices[j] = h.Vertices[i]
	}
	for v, t := range h.TID {
		out.TID[v] = id(t)
	}
	return out
}

// TestFoldOnAnyHierarchy checks PrimaryA and PrimaryB against brute force
// on every hierarchy of every test shape, at threads 1, 2, 4 and 8, with
// and without a layout.
func TestFoldOnAnyHierarchy(t *testing.T) {
	for name, g := range testGraphs() {
		coreness := coredecomp.Serial(g)
		lay := layoutFor(g, coreness)
		for hname, h := range hierarchies(g, coreness) {
			if err := hierarchy.Validate(h, g, coreness); err != nil {
				t.Fatalf("%s/%s: invalid hierarchy: %v", name, hname, err)
			}
			want := brutePrimary(g, h)
			for _, l := range []*shellidx.Layout{nil, lay} {
				ix := NewIndexWithLayout(g, coreness, h, l, 2)
				for _, threads := range []int{1, 2, 4, 8} {
					a, b := ix.PrimaryA(threads), ix.PrimaryB(threads)
					for i := range want {
						if !pvEqual(a[i], want[i], false) || !pvEqual(b[i], want[i], true) {
							t.Fatalf("%s/%s layout=%v threads=%d node %d: PrimaryA %+v, PrimaryB %+v, want %+v",
								name, hname, l != nil, threads, i, a[i], b[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAccumulateSubtreeSums checks BKS's serial fold: with one row per
// node holding the node's vertex count, every row must end up holding
// the node's core size.
func TestAccumulateSubtreeSums(t *testing.T) {
	g := gen.Onion(5, 8, 2, 2, 2, 9)
	h := hierarchy.BruteForce(g, coredecomp.Serial(g))
	nn := h.NumNodes()
	vals := make([]int64, nn)
	for i := 0; i < nn; i++ {
		vals[i] = int64(len(h.Vertices[i]))
	}
	accumulate(h, vals, 1)
	for i := 0; i < nn; i++ {
		if want := int64(h.CoreSize(hierarchy.NodeID(i))); vals[i] != want {
			t.Errorf("node %d: accumulated %d, want core size %d", i, vals[i], want)
		}
	}
}

func TestAccumulateEmptyAndPanics(t *testing.T) {
	accumulate(&hierarchy.HCD{}, nil, 3) // no-op, must not panic

	g := graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})
	h := hierarchy.BruteForce(g, coredecomp.Serial(g))
	defer func() {
		if recover() == nil {
			t.Error("size mismatch must panic")
		}
	}()
	accumulate(h, make([]int64, 1), 2)
}
