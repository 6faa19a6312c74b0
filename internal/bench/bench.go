// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§V) on the synthetic dataset suite.
// It is shared by cmd/benchtab (human-readable tables) and the repository's
// top-level testing.B benchmarks.
//
// Absolute numbers differ from the paper's (different hardware, synthetic
// stand-in datasets); the quantities reproduced are the comparative shapes:
// who wins, by what factor, and how the factors move with thread count.
// See EXPERIMENTS.md for paper-vs-measured notes per experiment.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"hcd/internal/clique"
	core2 "hcd/internal/core"
	"hcd/internal/coredecomp"
	"hcd/internal/densest"
	"hcd/internal/dynamic"
	"hcd/internal/gen"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/lcps"
	"hcd/internal/metrics"
	"hcd/internal/rc"
	"hcd/internal/search"
)

// Config controls one harness run.
type Config struct {
	// Scale multiplies the synthetic dataset sizes (1 = tiny/test,
	// 4 = benchmark default).
	Scale int
	// Threads is the thread count for the "(P)" parallel columns.
	// 0 = GOMAXPROCS.
	Threads int
	// Sweep is the thread-count sweep used by the figures; defaults to
	// {1, 2, 4, ..., GOMAXPROCS} when nil.
	Sweep []int
	// Reps is the number of timing repetitions; the minimum is reported.
	Reps int
	// Datasets filters the suite by abbreviation; nil = all ten.
	Datasets []string
	// Out receives the formatted rows (required).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale < 1 {
		c.Scale = 1
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Reps < 1 {
		c.Reps = 3
	}
	if c.Sweep == nil {
		for t := 1; t <= runtime.GOMAXPROCS(0); t *= 2 {
			c.Sweep = append(c.Sweep, t)
		}
		if last := c.Sweep[len(c.Sweep)-1]; last != runtime.GOMAXPROCS(0) {
			c.Sweep = append(c.Sweep, runtime.GOMAXPROCS(0))
		}
	}
	return c
}

func (c Config) suite() []gen.Dataset {
	all := gen.Suite(c.Scale)
	if len(c.Datasets) == 0 {
		return all
	}
	want := map[string]bool{}
	for _, d := range c.Datasets {
		want[d] = true
	}
	var out []gen.Dataset
	for _, d := range all {
		if want[d.Abbrev] {
			out = append(out, d)
		}
	}
	return out
}

// timeIt reports the minimum wall time of reps runs of f.
func timeIt(reps int, f func()) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

func ratio(base, x time.Duration) float64 {
	if x <= 0 {
		return 0
	}
	return float64(base) / float64(x)
}

func secs(d time.Duration) string { return fmt.Sprintf("%.4f", d.Seconds()) }

// Table2 prints the dataset statistics table (paper Table II): n, m,
// average degree, kmax, and the number of HCD tree nodes.
func Table2(cfg Config) {
	cfg = cfg.withDefaults()
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tn\tm\tdavg\tkmax\t|T|")
	for _, d := range cfg.suite() {
		g := gen.BuildCached(d, cfg.Scale)
		core := coredecomp.Parallel(g, cfg.Threads)
		h := core2.PHCD(g, core, cfg.Threads)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%d\t%d\n",
			d.Abbrev, g.NumVertices(), g.NumEdges(), g.AvgDegree(),
			coredecomp.KMax(core), h.NumNodes())
	}
	tw.Flush()
}

// Table3 prints the HCD construction comparison (paper Table III):
// serial PHCD time with its speedup relative to the LB lower bound and to
// LCPS, then P-thread PHCD time with its speedup relative to LB and to the
// RC local-core-search cost.
func Table3(cfg Config) {
	cfg = cfg.withDefaults()
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Dataset\tPHCD(1) s\tLB(1)x\tLCPSx\tPHCD(%d) s\tLB(%d)x\tRCx\n",
		cfg.Threads, cfg.Threads)
	for _, d := range cfg.suite() {
		g := gen.BuildCached(d, cfg.Scale)
		core := coredecomp.Serial(g)
		tPHCD1 := timeIt(cfg.Reps, func() { core2.PHCD(g, core, 1) })
		tLB1 := timeIt(cfg.Reps, func() { core2.LB(g, core, 1) })
		tLCPS := timeIt(cfg.Reps, func() { lcps.Build(g, core) })
		tPHCDp := timeIt(cfg.Reps, func() { core2.PHCD(g, core, cfg.Threads) })
		tLBp := timeIt(cfg.Reps, func() { core2.LB(g, core, cfg.Threads) })
		h := core2.PHCD(g, core, cfg.Threads)
		tRC := timeIt(cfg.Reps, func() { rc.RebuildParents(g, core, h) })
		fmt.Fprintf(tw, "%s\t%s\t%.2fx\t%.2fx\t%s\t%.2fx\t%.2fx\n",
			d.Abbrev,
			secs(tPHCD1), ratio(tLB1, tPHCD1), ratio(tLCPS, tPHCD1),
			secs(tPHCDp), ratio(tLBp, tPHCDp), ratio(tRC, tPHCDp))
	}
	tw.Flush()
}

// Table4 prints the densest subgraph / maximum clique study (paper
// Table IV): CoreApp's and PBKS-D's output average degree and runtimes
// (Opt-D included for time), whether the maximum clique is contained in
// PBKS-D's output S*, and |S*|/n.
func Table4(cfg Config) {
	cfg = cfg.withDefaults()
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tCoreApp davg\tCoreApp s\tOpt-D s\tPBKS-D davg\tPBKS-D s\tMC⊆S*\t|S*|/n")
	for _, d := range cfg.suite() {
		g := gen.BuildCached(d, cfg.Scale)
		core := coredecomp.Parallel(g, cfg.Threads)
		h := core2.PHCD(g, core, cfg.Threads)
		ix := search.NewIndex(g, core, h, cfg.Threads)
		bks := search.NewBKS(g, core, h)

		var ca, pd densest.Solution
		tCA := timeIt(cfg.Reps, func() { ca = densest.CoreApp(g, core) })
		tOptD := timeIt(cfg.Reps, func() { densest.OptD(bks, h) })
		tPD := timeIt(cfg.Reps, func() { pd = densest.PBKSD(ix, cfg.Threads) })
		mc := clique.Max(g)
		contained := "-"
		if clique.Contains(pd.Vertices, mc) {
			contained = "yes"
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%s\t%s\t%.2f\t%s\t%s\t%.3f%%\n",
			d.Abbrev, ca.AvgDegree, secs(tCA), secs(tOptD),
			pd.AvgDegree, secs(tPD), contained,
			100*float64(len(pd.Vertices))/float64(g.NumVertices()))
	}
	tw.Flush()
}

// Table5 prints the subgraph-search runtimes (paper Table V): P-thread
// PBKS score-computation time and its speedup over serial BKS, for the
// representative Type A metric (average degree) and Type B metric
// (clustering coefficient). Preprocessing/index construction is excluded,
// as in the paper.
func Table5(cfg Config) {
	cfg = cfg.withDefaults()
	mA := &metrics.AverageDegree{}
	mB := &metrics.ClusteringCoefficient{}
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Dataset\tTypeA(%d) s\tTypeA(1)x\tTypeB(%d) s\tTypeB(1)x\n", cfg.Threads, cfg.Threads)
	for _, d := range cfg.suite() {
		g := gen.BuildCached(d, cfg.Scale)
		core := coredecomp.Parallel(g, cfg.Threads)
		h := core2.PHCD(g, core, cfg.Threads)
		ix := search.NewIndex(g, core, h, cfg.Threads)
		bks := search.NewBKS(g, core, h)
		tAp := timeIt(cfg.Reps, func() { ix.Search(mA, cfg.Threads) })
		tAs := timeIt(cfg.Reps, func() { bks.Search(mA) })
		tBp := timeIt(cfg.Reps, func() { ix.Search(mB, cfg.Threads) })
		tBs := timeIt(cfg.Reps, func() { bks.Search(mB) })
		fmt.Fprintf(tw, "%s\t%s\t%.2fx\t%s\t%.2fx\n",
			d.Abbrev, secs(tAp), ratio(tAs, tAp), secs(tBp), ratio(tBs, tBp))
	}
	tw.Flush()
}

// pipeline holds per-dataset state shared by the figure sweeps.
type pipeline struct {
	d    gen.Dataset
	g    *graph.Graph
	core []int32
	h    *hierarchy.HCD
}

func (c Config) pipelines() []pipeline {
	var out []pipeline
	for _, d := range c.suite() {
		g := gen.BuildCached(d, c.Scale)
		core := coredecomp.Serial(g)
		h := core2.PHCD(g, core, c.Threads)
		out = append(out, pipeline{d: d, g: g, core: core, h: h})
	}
	return out
}

// sweepFig prints one speedup figure: for every dataset a row of
// baseline/parallel ratios across the thread sweep.
func sweepFig(cfg Config, title string, baseline func(pipeline) time.Duration,
	parallel func(pipeline, int) time.Duration) {
	cfg = cfg.withDefaults()
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\n", title)
	fmt.Fprint(tw, "Dataset")
	for _, t := range cfg.Sweep {
		fmt.Fprintf(tw, "\tp=%d", t)
	}
	fmt.Fprintln(tw)
	for _, pl := range cfg.pipelines() {
		base := baseline(pl)
		fmt.Fprint(tw, pl.d.Abbrev)
		for _, t := range cfg.Sweep {
			fmt.Fprintf(tw, "\t%.2fx", ratio(base, parallel(pl, t)))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Fig4 prints PHCD's speedup over LCPS across the thread sweep
// (paper Figure 4).
func Fig4(cfg Config) {
	cfg = cfg.withDefaults()
	sweepFig(cfg, "Fig 4: PHCD speedup over LCPS",
		func(pl pipeline) time.Duration {
			return timeIt(cfg.Reps, func() { lcps.Build(pl.g, pl.core) })
		},
		func(pl pipeline, t int) time.Duration {
			return timeIt(cfg.Reps, func() { core2.PHCD(pl.g, pl.core, t) })
		})
}

// Fig5 prints the end-to-end construction speedup including core
// decomposition: (PKC + PHCD at p threads) vs (PKC at one thread + LCPS)
// — the baseline pipeline the paper uses in Figure 5.
func Fig5(cfg Config) {
	cfg = cfg.withDefaults()
	sweepFig(cfg, "Fig 5: (PKC+PHCD) speedup over (PKC+LCPS)",
		func(pl pipeline) time.Duration {
			return timeIt(cfg.Reps, func() {
				c := coredecomp.Parallel(pl.g, 1)
				lcps.Build(pl.g, c)
			})
		},
		func(pl pipeline, t int) time.Duration {
			return timeIt(cfg.Reps, func() {
				c := coredecomp.Parallel(pl.g, t)
				core2.PHCD(pl.g, c, t)
			})
		})
}

// figSearch prints Figures 6-9: PBKS-vs-BKS score computation speedups
// (optionally end-to-end including PKC + PHCD + preprocessing).
func figSearch(cfg Config, title string, m metrics.Metric, endToEnd bool) {
	cfg = cfg.withDefaults()
	sweepFig(cfg, title,
		func(pl pipeline) time.Duration {
			return timeIt(cfg.Reps, func() {
				if endToEnd {
					// The paper's serial pipeline: PKC + LCPS + BKS.
					c := coredecomp.Parallel(pl.g, 1)
					h := lcps.Build(pl.g, c)
					search.NewBKS(pl.g, c, h).Search(m)
					return
				}
				bks := search.NewBKS(pl.g, pl.core, pl.h)
				bks.Search(m)
			})
		},
		func(pl pipeline, t int) time.Duration {
			return timeIt(cfg.Reps, func() {
				if endToEnd {
					c := coredecomp.Parallel(pl.g, t)
					h := core2.PHCD(pl.g, c, t)
					search.NewIndex(pl.g, c, h, t).Search(m, t)
					return
				}
				ix := search.NewIndex(pl.g, pl.core, pl.h, t)
				ix.Search(m, t)
			})
		})
}

// Fig6 prints PBKS's Type A score-computation speedup over BKS
// (paper Figure 6).
func Fig6(cfg Config) {
	figSearch(cfg, "Fig 6: PBKS speedup over BKS (Type A)", &metrics.AverageDegree{}, false)
}

// Fig7 prints the end-to-end Type A pipeline speedup
// (PKC+PHCD+PBKS over CD+LCPS+BKS, paper Figure 7).
func Fig7(cfg Config) {
	figSearch(cfg, "Fig 7: end-to-end Type A speedup", &metrics.AverageDegree{}, true)
}

// Fig8 prints PBKS's Type B score-computation speedup over BKS
// (paper Figure 8).
func Fig8(cfg Config) {
	figSearch(cfg, "Fig 8: PBKS speedup over BKS (Type B)", &metrics.ClusteringCoefficient{}, false)
}

// Fig9 prints the end-to-end Type B pipeline speedup (paper Figure 9).
func Fig9(cfg Config) {
	figSearch(cfg, "Fig 9: end-to-end Type B speedup", &metrics.ClusteringCoefficient{}, true)
}

// Fig10 prints the per-component speedup at the maximum thread count
// (paper Figure 10): core decomposition (CD), HCD construction (HCD),
// Type A score computation (SC-A) and Type B score computation (SC-B),
// each parallel-vs-serial.
func Fig10(cfg Config) {
	cfg = cfg.withDefaults()
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Fig 10: per-component speedup at p=%d\n", cfg.Threads)
	fmt.Fprintln(tw, "Dataset\tCD\tHCD\tSC-A\tSC-B")
	mA, mB := &metrics.AverageDegree{}, &metrics.ClusteringCoefficient{}
	for _, pl := range cfg.pipelines() {
		tCDs := timeIt(cfg.Reps, func() { coredecomp.Serial(pl.g) })
		tCDp := timeIt(cfg.Reps, func() { coredecomp.Parallel(pl.g, cfg.Threads) })
		tHs := timeIt(cfg.Reps, func() { lcps.Build(pl.g, pl.core) })
		tHp := timeIt(cfg.Reps, func() { core2.PHCD(pl.g, pl.core, cfg.Threads) })
		ix := search.NewIndex(pl.g, pl.core, pl.h, cfg.Threads)
		bks := search.NewBKS(pl.g, pl.core, pl.h)
		tAs := timeIt(cfg.Reps, func() { bks.Search(mA) })
		tAp := timeIt(cfg.Reps, func() { ix.Search(mA, cfg.Threads) })
		tBs := timeIt(cfg.Reps, func() { bks.Search(mB) })
		tBp := timeIt(cfg.Reps, func() { ix.Search(mB, cfg.Threads) })
		fmt.Fprintf(tw, "%s\t%.2fx\t%.2fx\t%.2fx\t%.2fx\n",
			pl.d.Abbrev, ratio(tCDs, tCDp), ratio(tHs, tHp),
			ratio(tAs, tAp), ratio(tBs, tBp))
	}
	tw.Flush()
}

// Ablation prints the §III-E divide-and-conquer comparison: PHCD vs the
// partition+RC-merge constructor, both at the configured thread count.
func Ablation(cfg Config) {
	cfg = cfg.withDefaults()
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Ablation: divide-and-conquer (§III-E) vs PHCD at p=%d\n", cfg.Threads)
	fmt.Fprintln(tw, "Dataset\tPHCD s\tD&C s\tD&C/PHCD")
	for _, pl := range cfg.pipelines() {
		tP := timeIt(cfg.Reps, func() { core2.PHCD(pl.g, pl.core, cfg.Threads) })
		tD := timeIt(cfg.Reps, func() { core2.DivideConquer(pl.g, pl.core, cfg.Threads) })
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2fx\n", pl.d.Abbrev, secs(tP), secs(tD), ratio(tD, tP))
	}
	tw.Flush()
}

// Run dispatches an experiment by name: "table2".."table5", "fig4".."fig10",
// "ablation" or "maintenance".
func Run(name string, cfg Config) error {
	fns := map[string]func(Config){
		"table2": Table2, "table3": Table3, "table4": Table4, "table5": Table5,
		"fig4": Fig4, "fig5": Fig5, "fig6": Fig6, "fig7": Fig7, "fig8": Fig8,
		"fig9": Fig9, "fig10": Fig10, "ablation": Ablation,
		"maintenance": Maintenance,
	}
	fn, ok := fns[name]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q", name)
	}
	fn(cfg)
	return nil
}

// Names lists the experiments Run accepts, in presentation order.
func Names() []string {
	return []string{"table2", "table3", "table4", "table5",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "ablation",
		"maintenance"}
}

// Maintenance prints the dynamic-maintenance ablation: per dataset, the
// per-operation cost of a mixed insert/delete stream under the
// subcore-traversal maintainer, the order-based maintainer, and full
// recomputation, all applying the same mutation sequence.
func Maintenance(cfg Config) {
	cfg = cfg.withDefaults()
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Maintenance ablation (µs per operation, mixed stream)")
	fmt.Fprintln(tw, "Dataset\tops\ttraversal\torder-based\trecompute")
	const streamLen = 300
	for _, d := range cfg.suite() {
		g := gen.BuildCached(d, cfg.Scale)
		n := int32(g.NumVertices())
		type op struct {
			u, v int32
		}
		// Deterministic mutation schedule derived from vertex ids.
		ops := make([]op, 0, streamLen)
		seed := int64(1)
		for len(ops) < streamLen {
			u := int32(seed * 2654435761 % int64(n))
			v := int32((seed*40503 + 7) % int64(n))
			seed++
			if u != v {
				ops = append(ops, op{u, v})
			}
		}
		apply := func(has func(u, v int32) bool, ins, rem func(u, v int32) error) {
			for _, o := range ops {
				if has(o.u, o.v) {
					_ = rem(o.u, o.v)
				} else {
					_ = ins(o.u, o.v)
				}
			}
		}
		tTrav := timeIt(1, func() {
			m := dynamic.New(g)
			apply(m.HasEdge, m.InsertEdge, m.RemoveEdge)
		})
		tOrder := timeIt(1, func() {
			m := dynamic.NewOrder(g)
			apply(m.HasEdge, m.InsertEdge, m.RemoveEdge)
		})
		tRecomp := timeIt(1, func() {
			m := dynamic.New(g)
			apply(m.HasEdge,
				func(u, v int32) error {
					err := m.InsertEdge(u, v)
					coredecomp.Serial(m.Snapshot())
					return err
				},
				func(u, v int32) error {
					err := m.RemoveEdge(u, v)
					coredecomp.Serial(m.Snapshot())
					return err
				})
		})
		perOp := func(d time.Duration) float64 {
			return float64(d.Microseconds()) / float64(len(ops))
		}
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\n",
			d.Abbrev, len(ops), perOp(tTrav), perOp(tOrder), perOp(tRecomp))
	}
	tw.Flush()
}
