package shellidx

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hcd/internal/coredecomp"
	"hcd/internal/gen"
	"hcd/internal/graph"
)

// naive builds the reference layout per the documented contract: each list
// sorted by (descending coreness, ascending id), with counted splits.
func naive(g *graph.Graph, core []int32) (adj [][]int32, gt, eq []int32) {
	n := g.NumVertices()
	adj = make([][]int32, n)
	gt = make([]int32, n)
	eq = make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		nb := append([]int32(nil), g.Neighbors(v)...)
		sort.SliceStable(nb, func(i, j int) bool {
			if core[nb[i]] != core[nb[j]] {
				return core[nb[i]] > core[nb[j]]
			}
			return nb[i] < nb[j]
		})
		adj[v] = nb
		for _, u := range nb {
			switch {
			case core[u] > core[v]:
				gt[v]++
			case core[u] == core[v]:
				eq[v]++
			}
		}
	}
	return adj, gt, eq
}

func checkLayout(t *testing.T, name string, g *graph.Graph, threads int) {
	t.Helper()
	core := coredecomp.Serial(g)
	r := coredecomp.RankVertices(core, threads)
	l := Build(g, core, r, threads)
	wantAdj, wantGt, wantEq := naive(g, core)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if got := l.Reordered(v); !reflect.DeepEqual(got, wantAdj[v]) && len(wantAdj[v]) > 0 {
			t.Fatalf("%s threads=%d: vertex %d reordered list %v, want %v", name, threads, v, got, wantAdj[v])
		}
		if l.DeeperCount(v) != wantGt[v] || l.SameCount(v) != wantEq[v] {
			t.Fatalf("%s threads=%d: vertex %d splits gt=%d eq=%d, want gt=%d eq=%d",
				name, threads, v, l.DeeperCount(v), l.SameCount(v), wantGt[v], wantEq[v])
		}
		// Segment accessors must tile the list exactly.
		total := len(l.Deeper(v)) + len(l.Same(v)) + len(l.Shallower(v))
		if total != g.Degree(v) {
			t.Fatalf("%s threads=%d: vertex %d segments cover %d of %d neighbors",
				name, threads, v, total, g.Degree(v))
		}
		for _, u := range l.Deeper(v) {
			if core[u] <= core[v] {
				t.Fatalf("%s: vertex %d Deeper contains %d (core %d <= %d)", name, v, u, core[u], core[v])
			}
		}
		for _, u := range l.Same(v) {
			if core[u] != core[v] {
				t.Fatalf("%s: vertex %d Same contains %d (core %d != %d)", name, v, u, core[u], core[v])
			}
		}
		for _, u := range l.Shallower(v) {
			if core[u] >= core[v] {
				t.Fatalf("%s: vertex %d Shallower contains %d (core %d >= %d)", name, v, u, core[u], core[v])
			}
		}
	}
}

func TestBuildMatchesNaive(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.MustFromEdges(0, nil)},
		{"isolated", graph.MustFromEdges(5, nil)},
		{"edge", graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})},
		{"er", gen.ErdosRenyi(300, 1200, 1)},
		{"ba", gen.BarabasiAlbert(200, 5, 2)},
		{"rmat", gen.RMAT(9, 2000, 3)},
		{"onion", gen.Onion(6, 12, 2, 2, 3, 4)},
	}
	for _, c := range cases {
		for _, threads := range []int{1, 2, 4, 7} {
			checkLayout(t, c.name, c.g, threads)
		}
	}
}

// The layout must be byte-identical across thread counts — in particular
// the serial shell-scatter path and the parallel per-vertex counting sort
// must agree exactly.
func TestBuildDeterministicAcrossThreads(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(200)
		edges := make([]graph.Edge, 4*n)
		for i := range edges {
			edges[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		g := graph.MustFromEdges(n, edges)
		core := coredecomp.Serial(g)
		r := coredecomp.RankVertices(core, 0)
		ref := Build(g, core, r, 1)
		for _, threads := range []int{2, 3, 8} {
			l := Build(g, core, r, threads)
			if !reflect.DeepEqual(l.adj, ref.adj) {
				t.Fatalf("seed=%d threads=%d: adjacency differs from serial build", seed, threads)
			}
			if !reflect.DeepEqual(l.gt, ref.gt) || !reflect.DeepEqual(l.eq, ref.eq) {
				t.Fatalf("seed=%d threads=%d: splits differ from serial build", seed, threads)
			}
		}
	}
}

func TestSuiteLayouts(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, d := range gen.Suite(1) {
		g := d.Build()
		core := coredecomp.Parallel(g, 0)
		r := coredecomp.RankVertices(core, 0)
		l := Build(g, core, r, 0)
		// Spot-check structural invariants over every vertex.
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			last := int32(1 << 30)
			for _, u := range l.Reordered(v) {
				if core[u] > last {
					t.Fatalf("%s: vertex %d list not descending by coreness", d.Abbrev, v)
				}
				last = core[u]
			}
		}
	}
}

// TestLayoutKeepsRanking checks that a layout hands back the ranking it
// was built from, at either build path, and that Bytes counts it: the
// adjacency at 4 bytes per half-edge, gt/eq and the ranking's Order and
// Rank at 4 bytes per vertex each, and ShellStart at 8 bytes per level.
func TestLayoutKeepsRanking(t *testing.T) {
	g := gen.ErdosRenyi(300, 1200, 1)
	core := coredecomp.Serial(g)
	r := coredecomp.RankVertices(core, 1)
	n := int64(g.NumVertices())
	want := 8*g.NumEdges() + 16*n + 8*int64(r.KMax+2)
	for _, threads := range []int{1, 4} {
		l := Build(g, core, r, threads)
		if l.Ranking() != r {
			t.Errorf("threads=%d: Ranking() is not the ranking the layout was built from", threads)
		}
		if got := l.Bytes(); got != want {
			t.Errorf("threads=%d: Bytes() = %d, want %d", threads, got, want)
		}
	}
}

func BenchmarkBuildLayout(b *testing.B) {
	g := gen.RMAT(15, 1<<18, 7)
	core := coredecomp.Serial(g)
	r := coredecomp.RankVertices(core, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, core, r, 0)
	}
}
