package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"hcd/internal/coredecomp"
	"hcd/internal/gen"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/lcps"
	"hcd/internal/shellidx"
)

// withLayout adapts PHCDWithLayout to checkConstructor's build signature,
// constructing the layout fresh for the requested thread count.
func withLayout(g *graph.Graph, core []int32, threads int) *hierarchy.HCD {
	r := coredecomp.RankVertices(core, threads)
	lay := shellidx.Build(g, core, r, threads)
	return PHCDWithLayout(g, core, lay, threads)
}

func TestPHCDWithLayoutMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"single", graph.MustFromEdges(1, nil)},
		{"isolated", graph.MustFromEdges(6, nil)},
		{"edge", graph.MustFromEdges(2, []graph.Edge{{U: 0, V: 1}})},
		{"er", gen.ErdosRenyi(200, 800, 1)},
		{"ba", gen.BarabasiAlbert(150, 4, 3)},
		{"rmat", gen.RMAT(8, 1200, 4)},
		{"onion", gen.Onion(6, 12, 2, 2, 3, 5)},
		{"planted", gen.PlantedPartition(4, 40, 0.25, 0.01, 6)},
	}
	for _, c := range cases {
		checkConstructor(t, c.name, c.g, withLayout)
	}
}

func TestPHCDWithLayoutProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint16, p uint8) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 900)
		g := randomGraph(n, m, seed)
		core := coredecomp.Serial(g)
		threads := int(p%8) + 1
		got := withLayout(g, core, threads)
		return hierarchy.Equal(got, PHCD(g, core, 1)) &&
			hierarchy.Validate(got, g, core) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The determinism contract of the rewrite: node ids, vertex-list contents
// and order, and child-list order are identical for every thread count and
// for the with/without-layout variants, all matching the serial builder's
// per-shell ascending-id order.
func TestPHCDDeterministicAcrossThreadsAndLayout(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"er", gen.ErdosRenyi(400, 1600, 7)},
		{"ba", gen.BarabasiAlbert(300, 5, 8)},
		{"rmat", gen.RMAT(9, 2500, 9)},
		{"onion", gen.Onion(6, 14, 2, 2, 3, 10)},
		{"random", randomGraph(250, 1000, 11)},
	}
	for _, c := range cases {
		core := coredecomp.Serial(c.g)
		ref := PHCD(c.g, core, 1) // serial reference

		// Per-node vertex lists must be in ascending id order (= the
		// shell's order, shells being id-sorted).
		for id, vs := range ref.Vertices {
			for i := 1; i < len(vs); i++ {
				if vs[i-1] >= vs[i] {
					t.Fatalf("%s: node %d vertices not ascending: %v", c.name, id, vs)
				}
			}
		}

		r := coredecomp.RankVertices(core, 0)
		lay := shellidx.Build(c.g, core, r, 0)
		builds := []struct {
			tag string
			h   *hierarchy.HCD
		}{
			{"serial+layout", PHCDWithLayout(c.g, core, lay, 1)},
			{"p2", PHCD(c.g, core, 2)},
			{"p4", PHCD(c.g, core, 4)},
			{"p7", PHCD(c.g, core, 7)},
			{"p2+layout", PHCDWithLayout(c.g, core, lay, 2)},
			{"p5+layout", PHCDWithLayout(c.g, core, lay, 5)},
			{"p4-rerun", PHCD(c.g, core, 4)},
		}
		for _, b := range builds {
			if !reflect.DeepEqual(b.h.K, ref.K) {
				t.Fatalf("%s/%s: node K values differ from serial", c.name, b.tag)
			}
			if !reflect.DeepEqual(b.h.Vertices, ref.Vertices) {
				t.Fatalf("%s/%s: h.Vertices differs from serial", c.name, b.tag)
			}
			if !reflect.DeepEqual(b.h.Parent, ref.Parent) {
				t.Fatalf("%s/%s: h.Parent differs from serial", c.name, b.tag)
			}
			if !reflect.DeepEqual(b.h.TID, ref.TID) {
				t.Fatalf("%s/%s: h.TID differs from serial", c.name, b.tag)
			}
			if !reflect.DeepEqual(b.h.Children, ref.Children) {
				t.Fatalf("%s/%s: h.Children differs from serial", c.name, b.tag)
			}
		}
	}
}

func TestPHCDSuiteWithLayout(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, d := range gen.Suite(1) {
		g := d.Build()
		core := coredecomp.Parallel(g, 0)
		r := coredecomp.RankVertices(core, 0)
		lay := shellidx.Build(g, core, r, 0)
		h := PHCDWithLayout(g, core, lay, 0)
		if err := hierarchy.Validate(h, g, core); err != nil {
			t.Errorf("%s: %v", d.Abbrev, err)
			continue
		}
		if !hierarchy.Equal(h, lcps.Build(g, core)) {
			t.Errorf("%s: layout PHCD and LCPS disagree", d.Abbrev)
		}
	}
}

func BenchmarkPHCDWithLayout(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 8, 1)
	core := coredecomp.Serial(g)
	r := coredecomp.RankVertices(core, 0)
	lay := shellidx.Build(g, core, r, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PHCDWithLayout(g, core, lay, 0)
	}
}

func BenchmarkLayoutBuildForPHCD(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 8, 1)
	core := coredecomp.Serial(g)
	r := coredecomp.RankVertices(core, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shellidx.Build(g, core, r, 0)
	}
}
