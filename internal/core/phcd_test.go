package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hcd/internal/coredecomp"
	"hcd/internal/gen"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/lcps"
	"hcd/internal/shellidx"
)

func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return graph.MustFromEdges(n, edges)
}

func checkConstructor(t *testing.T, name string, g *graph.Graph, build func(*graph.Graph, []int32, int) *hierarchy.HCD) {
	t.Helper()
	core := coredecomp.Serial(g)
	want := hierarchy.BruteForce(g, core)
	for _, threads := range []int{1, 2, 4, 7} {
		h := build(g, core, threads)
		if err := hierarchy.Validate(h, g, core); err != nil {
			t.Fatalf("%s threads=%d: Validate: %v", name, threads, err)
		}
		if !hierarchy.Equal(h, want) {
			t.Fatalf("%s threads=%d: differs from brute force (|T| got %d want %d)",
				name, threads, h.NumNodes(), want.NumNodes())
		}
	}
}

func TestPHCDEmptyAndTiny(t *testing.T) {
	h := PHCD(graph.MustFromEdges(0, nil), nil, 4)
	if h.NumNodes() != 0 {
		t.Error("empty graph must yield empty HCD")
	}
	checkConstructor(t, "single", graph.MustFromEdges(1, nil), PHCD)
	checkConstructor(t, "isolated", graph.MustFromEdges(6, nil), PHCD)
	checkConstructor(t, "edge", graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}}), PHCD)
}

func TestPHCDGeneratedFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(200, 800, 1)},
		{"er-sparse", gen.ErdosRenyi(300, 200, 2)},
		{"ba", gen.BarabasiAlbert(150, 4, 3)},
		{"rmat", gen.RMAT(8, 1200, 4)},
		{"onion", gen.Onion(6, 12, 2, 2, 3, 5)},
		{"planted", gen.PlantedPartition(4, 40, 0.25, 0.01, 6)},
	}
	for _, c := range cases {
		checkConstructor(t, c.name, c.g, PHCD)
	}
}

func TestPHCDMatchesLCPSProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint16, p uint8) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 900)
		g := randomGraph(n, m, seed)
		core := coredecomp.Serial(g)
		want := lcps.Build(g, core)
		got := PHCD(g, core, int(p%8)+1)
		return hierarchy.Equal(got, want) && hierarchy.Validate(got, g, core) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDivideConquerMatchesBruteForce(t *testing.T) {
	cases := []*graph.Graph{
		gen.ErdosRenyi(150, 600, 11),
		gen.BarabasiAlbert(120, 3, 12),
		gen.Onion(5, 10, 2, 2, 2, 13),
		graph.MustFromEdges(4, nil),
	}
	for i, g := range cases {
		checkConstructor(t, "dc", g, DivideConquer)
		_ = i
	}
}

func TestDivideConquerProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint16, p uint8) bool {
		n := int(nRaw%100) + 1
		m := int(mRaw % 600)
		g := randomGraph(n, m, seed)
		core := coredecomp.Serial(g)
		got := DivideConquer(g, core, int(p%5)+1)
		return hierarchy.Equal(got, hierarchy.BruteForce(g, core))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLBCountsComponents(t *testing.T) {
	g := gen.ErdosRenyi(200, 300, 21)
	core := coredecomp.Serial(g)
	_, want := g.ConnectedComponents()
	for _, threads := range []int{1, 4} {
		if got := LB(g, core, threads); got != want {
			t.Errorf("threads=%d: LB components = %d, want %d", threads, got, want)
		}
	}
	if LB(graph.MustFromEdges(0, nil), nil, 2) != 0 {
		t.Error("LB on empty graph should be 0")
	}
}

func TestPHCDSuiteValidates(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, d := range gen.Suite(1) {
		g := d.Build()
		core := coredecomp.Parallel(g, 0)
		h := PHCD(g, core, 0)
		if err := hierarchy.Validate(h, g, core); err != nil {
			t.Errorf("%s: %v", d.Abbrev, err)
		}
		// Cross-check against LCPS.
		if !hierarchy.Equal(h, lcps.Build(g, core)) {
			t.Errorf("%s: PHCD and LCPS disagree", d.Abbrev)
		}
	}
}

func BenchmarkPHCD(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 8, 1)
	core := coredecomp.Serial(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PHCD(g, core, 0)
	}
}

func BenchmarkLB(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 8, 1)
	core := coredecomp.Serial(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LB(g, core, 0)
	}
}

// TestPHCDSerialListsDoNotShareCapacity checks the one-thread path's
// slabs: every node's Vertices and Children list is cut from one shared
// array, so an append to one node's list must reallocate rather than
// overwrite the next node's entries. With and without a layout, it
// appends to each node's lists in turn and checks that no other node's
// lists changed.
func TestPHCDSerialListsDoNotShareCapacity(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Onion(6, 12, 2, 2, 3, 5), // 15 nodes, 12 with children
		gen.PlantedPartition(4, 40, 0.25, 0.01, 6),
		gen.ErdosRenyi(300, 600, 2),
		gen.RMAT(10, 4000, 4), // 350 nodes, 14 with children
	} {
		core := coredecomp.Serial(g)
		lay := shellidx.Build(g, core, coredecomp.RankVertices(core, 1), 1)
		for _, l := range []*shellidx.Layout{nil, lay} {
			h, err := PHCDCtx(context.Background(), g, core, l, 1)
			if err != nil {
				t.Fatal(err)
			}
			parents := 0
			for _, c := range h.Children {
				if len(c) > 0 {
					parents++
				}
			}
			if h.NumNodes() < 3 || parents < 2 {
				t.Fatalf("layout %v: %d nodes, %d with children; the graph is too small to test", l != nil, h.NumNodes(), parents)
			}
			wantV := make([][]int32, h.NumNodes())
			wantC := make([][]hierarchy.NodeID, h.NumNodes())
			for i := range wantV {
				wantV[i] = slices.Clone(h.Vertices[i])
				wantC[i] = slices.Clone(h.Children[i])
			}
			for i := range h.Vertices {
				vs, cs := h.Vertices[i], h.Children[i]
				h.Vertices[i] = append(vs, -1)
				h.Children[i] = append(cs, hierarchy.Nil)
				for j := range h.Vertices {
					if j != i && (!slices.Equal(h.Vertices[j], wantV[j]) || !slices.Equal(h.Children[j], wantC[j])) {
						t.Fatalf("layout %v: appending to node %d's lists changed node %d's", l != nil, i, j)
					}
				}
				h.Vertices[i], h.Children[i] = vs, cs
			}
		}
	}
}
