package search

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/metrics"
	"hcd/internal/par"
	"hcd/internal/shellidx"
)

// precedesRef is the triangle order ≺ = (coreness, degree, id) written
// out from its definition.
func precedesRef(g *graph.Graph, core []int32, v, u int32) bool {
	kv := [3]int64{int64(core[v]), int64(g.Degree(v)), int64(v)}
	ku := [3]int64{int64(core[u]), int64(g.Degree(u)), int64(u)}
	return slices.Compare(kv[:], ku[:]) < 0
}

// The forward lists hold exactly N+(v) = {u ∈ N(v) : v ≺ u}, and every
// one of them is within the bound the O(m^1.5) work argument rests on:
// |N+(v)| ≤ c(v) + min(eq(v), ⌊2m/d(v)⌋). A star with 2^16 leaves and a
// mid-range centre pins the degree tie-break: a shell ordered by id alone
// would give its centre 2^15 forward leaves instead of none. The lists
// are a pure function of the graph, so builds at one and three threads
// are identical.
func TestForwardListsWithinBound(t *testing.T) {
	const leaves = 1 << 16
	graphs := testGraphs()
	graphs["star-2^16"] = star(leaves+1, leaves/2)
	for name, g := range graphs {
		core, h := setup(g)
		n := g.NumVertices()
		twoM := 2 * g.NumEdges()
		for _, lay := range []*shellidx.Layout{nil, layoutFor(g, core)} {
			ix := NewIndexWithLayout(g, core, h, lay, 1)
			var first *forward
			for _, p := range []int{1, 3} {
				fw := new(forward)
				if err := ix.forwardCtx(context.Background(), fw, p); err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = fw
				} else if !reflect.DeepEqual(fw, first) {
					t.Errorf("%s layout=%v: lists built at p=%d differ from p=1", name, lay != nil, p)
				}
				var total int64
				for v := int32(0); v < int32(n); v++ {
					got := slices.Clone(fw.list(v))
					var want []int32
					for _, u := range g.Neighbors(v) {
						if precedesRef(g, core, v, u) {
							want = append(want, u)
						}
					}
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("%s layout=%v p=%d: N+(%d) = %v, want %v", name, lay != nil, p, v, got, want)
					}
					if d := int64(g.Degree(v)); d > 0 {
						bound := int64(core[v]) + min(int64(ix.eqK[v]), twoM/d)
						if int64(len(got)) > bound {
							t.Fatalf("%s layout=%v p=%d: |N+(%d)| = %d exceeds c + min(eq, 2m/d) = %d",
								name, lay != nil, p, v, len(got), bound)
						}
					}
					total += int64(len(got))
				}
				// Every edge is forward from exactly one end (on the star,
				// n-1 entries: one per leaf).
				if total != g.NumEdges() || int64(len(fw.adj)) != total {
					t.Errorf("%s layout=%v p=%d: forward lists hold %d entries (adj %d), want m = %d",
						name, lay != nil, p, total, len(fw.adj), g.NumEdges())
				}
			}
		}
	}
}

// TestForwardListsBuiltOnFirstUse pins when the lists exist: not after
// NewIndexCtx, not after Type-A queries, and once after the first Type-B
// query, which every later Type-B query then shares. Bytes counts them
// from then on.
func TestForwardListsBuiltOnFirstUse(t *testing.T) {
	ctx := context.Background()
	g := testGraphs()["ba"]
	core, h := setup(g)
	for _, lay := range []*shellidx.Layout{nil, layoutFor(g, core)} {
		ix, err := NewIndexCtx(ctx, g, core, h, lay, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ix.fw.Load() != nil {
			t.Fatalf("layout=%v: NewIndexCtx built the forward lists", lay != nil)
		}
		before := ix.Bytes()
		ma := &metrics.AverageDegree{}
		if _, err := ix.SearchCtx(ctx, ma, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.SearchConstrainedCtx(ctx, ma, 1, 0, 2); err != nil {
			t.Fatal(err)
		}
		ix.BestKSet(ma, 2)
		ix.BestPerLevel(ma, 2)
		if ix.fw.Load() != nil {
			t.Fatalf("layout=%v: a Type-A query built the forward lists", lay != nil)
		}
		if _, err := ix.SearchCtx(ctx, &metrics.ClusteringCoefficient{}, 2); err != nil {
			t.Fatal(err)
		}
		fw := ix.fw.Load()
		if fw == nil {
			t.Fatalf("layout=%v: a Type-B query left no forward lists", lay != nil)
		}
		if _, err := ix.SearchCtx(ctx, &metrics.TriangleDensity{}, 3); err != nil {
			t.Fatal(err)
		}
		if ix.PrimaryB(1); ix.fw.Load() != fw {
			t.Errorf("layout=%v: later Type-B queries rebuilt the forward lists", lay != nil)
		}
		want := int64(g.NumVertices()+1)*8 + g.NumEdges()*4
		if got := ix.Bytes() - before; got != want {
			t.Errorf("layout=%v: Bytes grew by %d with the lists, want 8(n+1) + 4m = %d", lay != nil, got, want)
		}
	}
}

// TestForwardListsContainFaults checks that a failed first build stores
// nothing: a panic in the build surfaces as a contained *par.PanicError
// and a cancelled ctx, before or during the build, as context.Canceled,
// and in every case the next call builds the lists afresh and counts
// what brute force counts.
func TestForwardListsContainFaults(t *testing.T) {
	defer faultinject.Disable()
	g := testGraphs()["onion"]
	core, h := setup(g)
	want := brutePrimary(g, h)
	check := func(ix *Index, what string) {
		t.Helper()
		if ix.fw.Load() != nil {
			t.Fatalf("%s: the failed build stored forward lists", what)
		}
		got, err := ix.PrimaryBCtx(context.Background(), 3)
		if err != nil {
			t.Fatalf("%s: retry failed: %v", what, err)
		}
		for i := range want {
			if !pvEqual(got[i], want[i], true) {
				t.Fatalf("%s: retry node %d: PrimaryB %+v, want %+v", what, i, got[i], want[i])
			}
		}
		if ix.fw.Load() == nil {
			t.Fatalf("%s: the successful retry stored no forward lists", what)
		}
	}
	for _, lay := range []*shellidx.Layout{nil, layoutFor(g, core)} {
		ix := NewIndexWithLayout(g, core, h, lay, 2)
		if err := faultinject.Enable("search.forward:panic:1"); err != nil {
			t.Fatal(err)
		}
		_, err := ix.PrimaryBCtx(context.Background(), 3)
		faultinject.Disable()
		var pe *par.PanicError
		var f *faultinject.Fault
		if !errors.As(err, &pe) || !errors.As(err, &f) || f.Site != "search.forward" {
			t.Fatalf("layout=%v: PrimaryBCtx err = %v, want a *par.PanicError wrapping the search.forward fault", lay != nil, err)
		}
		check(ix, "panic")

		ix = NewIndexWithLayout(g, core, h, lay, 2)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ix.PrimaryBCtx(ctx, 3); !errors.Is(err, context.Canceled) {
			t.Fatalf("layout=%v: cancelled PrimaryBCtx err = %v, want context.Canceled", lay != nil, err)
		}
		check(ix, "cancel")

		// A cancel that lands mid-build: a delay rule holds one range of
		// the count pass open until the cancel has arrived.
		ix = NewIndexWithLayout(g, core, h, lay, 2)
		if err := faultinject.Enable("search.forward:delay:1:100ms"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		time.AfterFunc(10*time.Millisecond, cancel)
		_, err = ix.PrimaryBCtx(ctx, 3)
		faultinject.Disable()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("layout=%v: PrimaryBCtx cancelled mid-build err = %v, want context.Canceled", lay != nil, err)
		}
		check(ix, "mid-build cancel")
	}
}

// TestForwardListsConcurrentFirstUse races eight Type-B searches at one
// to four threads on a fresh Index: however the first builds interleave,
// every search must return BKS's answer. Run it under -race.
func TestForwardListsConcurrentFirstUse(t *testing.T) {
	ms := []metrics.Metric{&metrics.ClusteringCoefficient{}, &metrics.TriangleDensity{}}
	for _, name := range []string{"er", "onion", "star-mid"} {
		g := testGraphs()[name]
		core, h := setup(g)
		b := NewBKS(g, core, h)
		want := make([]Result, len(ms))
		for i, m := range ms {
			want[i] = b.Search(m)
		}
		for _, lay := range []*shellidx.Layout{nil, layoutFor(g, core)} {
			ix := NewIndexWithLayout(g, core, h, lay, 2)
			got := make([]Result, 8)
			errs := make([]error, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = ix.SearchCtx(context.Background(), ms[i%len(ms)], i%4+1)
				}()
			}
			wg.Wait()
			for i, r := range got {
				w := want[i%len(ms)]
				if errs[i] != nil {
					t.Fatalf("%s layout=%v search %d: %v", name, lay != nil, i, errs[i])
				}
				if r.Node != w.Node || r.Score != w.Score || r.Values != w.Values {
					t.Errorf("%s layout=%v search %d (%s, threads %d): node %d score %v, BKS node %d score %v",
						name, lay != nil, i, ms[i%len(ms)].Name(), i%4+1, r.Node, r.Score, w.Node, w.Score)
				}
			}
		}
	}
}
