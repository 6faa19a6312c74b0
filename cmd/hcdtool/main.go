// Command hcdtool runs the HCD pipeline on a graph file: statistics, core
// decomposition, hierarchy construction, subgraph search, densest-subgraph
// and maximum-clique queries, plus DOT export for visualisation.
//
// Usage:
//
//	hcdtool -cmd stats     -in g.bin
//	hcdtool -cmd decompose -in g.txt -format text
//	hcdtool -cmd build     -in g.bin -dot hcd.dot -index hcd.idx
//	hcdtool -cmd search    -in g.bin -metric conductance
//	hcdtool -cmd densest   -in g.bin
//	hcdtool -cmd clique    -in g.bin
//	hcdtool -cmd bestk     -in g.bin -metric average-degree
//	hcdtool -cmd kcore     -in g.bin -v 17 -k 5
//	hcdtool -cmd truss     -in g.bin
//	hcdtool -cmd influence -in g.bin -k 3 -top 5
//	hcdtool -cmd maintain  -in g.bin -stream ops.txt -engine order
//
// Input formats: "bin" (gengraph/WriteBinary) or "text" (SNAP edge list).
//
// -kernel selects the core-decomposition peeling kernel: levelsync |
// buffered (default buffered). Both produce identical coreness arrays —
// the switch exists for performance comparison (EXPERIMENTS.md, "Peel
// kernels on the perfbench graphs").
//
// Builds are interruptible: Ctrl-C (or SIGTERM) cancels the pipeline and
// the tool exits 130. -deadline bounds a build, -verify validates the
// hierarchy before use (a validation failure exits 3), and -faults arms
// the fault injector (testing).
//
// Observability: -trace writes a Chrome trace-event JSON of the run
// (load it in chrome://tracing or Perfetto), and -debug-addr serves
// /metrics (Prometheus text), /trace, /debug/vars (expvar) and
// /debug/pprof/ while the command runs.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hcd"
	"hcd/internal/faultinject"
	"hcd/internal/obs"
)

func main() {
	// SIGINT/SIGTERM cancel the build context: parallel phases notice at
	// the next level/chunk boundary, workers drain, and the tool exits
	// cleanly with the conventional 128+SIGINT code instead of dying
	// mid-allocation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool with explicit streams and returns a process exit
// code; main is a thin wrapper so tests can drive every command in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("hcdtool", flag.ContinueOnError)
	flag.SetOutput(stderr)
	cmd := flag.String("cmd", "stats", "stats | decompose | build | search | densest | clique | bestk | kcore | truss | influence | maintain")
	in := flag.String("in", "", "input graph path (required)")
	format := flag.String("format", "bin", "input format: bin or text")
	metric := flag.String("metric", "average-degree", "metric for search/bestk")
	threads := flag.Int("threads", 0, "threads (0 = GOMAXPROCS)")
	kernel := flag.String("kernel", "", "peeling kernel: levelsync | buffered (default buffered)")
	dot := flag.String("dot", "", "write the hierarchy in DOT format to this path (build)")
	svg := flag.String("svg", "", "write the hierarchy as an SVG icicle diagram to this path (build)")
	index := flag.String("index", "", "write the binary HCD index to this path (build)")
	top := flag.Int("top", 5, "number of results to print (search, influence)")
	vFlag := flag.Int("v", 0, "query vertex (kcore)")
	kFlag := flag.Int("k", 2, "core level (kcore, influence)")
	stream := flag.String("stream", "", "edge stream file for maintain: one 'i u v' or 'd u v' per line")
	engine := flag.String("engine", "order", "maintenance engine: traversal or order")
	deadline := flag.Duration("deadline", 0, "abort the build after this long (0 = no limit)")
	verify := flag.Bool("verify", false, "self-verify the built hierarchy before using it (exit 3 on failure)")
	faults := flag.String("faults", "", "fault-injection spec, e.g. 'phcd.step2:panic:1' (testing)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this path")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /trace, /debug/vars and /debug/pprof/ on this address while the command runs (e.g. localhost:6060)")
	if err := flag.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "hcdtool: interrupted")
			return 130
		}
		fmt.Fprintf(stderr, "hcdtool: %v\n", err)
		if errors.Is(err, hcd.ErrVerification) {
			return 3
		}
		return 1
	}
	if *faults != "" {
		if err := faultinject.Enable(*faults); err != nil {
			return fail(err)
		}
		defer faultinject.Disable()
	}
	if *tracePath != "" {
		// Scope the ring buffer to this command, and write it out deferred
		// so the trace covers the whole run, whichever path it exits
		// through.
		obs.ResetTrace()
		defer func() {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintf(stderr, "hcdtool: trace: %v\n", err)
				return
			}
			werr := obs.WriteTrace(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(stderr, "hcdtool: trace: %v\n", werr)
				return
			}
			fmt.Fprintf(stderr, "hcdtool: wrote trace to %s\n", *tracePath)
		}()
	}
	// The memory sampler runs for the whole command: the deferred final
	// sample records the run's heap/goroutine peaks, so even a short
	// build leaves its hcd_mem_* watermarks in the expvar/metrics
	// exposition (and in the -debug-addr scrape).
	stopMemSampler := obs.StartMemSampler(0)
	defer stopMemSampler()
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fail(err)
		}
		obs.PublishExpvar()
		srv := &http.Server{Handler: obs.Handler()}
		go srv.Serve(ln)
		// Drain rather than abort on the way out: an in-flight /metrics
		// scrape gets a short grace period to complete instead of being
		// torn mid-response by an abrupt Close.
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				_ = srv.Close() // scrape overran the grace period
			}
		}()
		fmt.Fprintf(stderr, "hcdtool: debug server on http://%s/\n", ln.Addr())
	}

	if *in == "" {
		fmt.Fprintln(stderr, "hcdtool: -in is required")
		return 2
	}
	var g *hcd.Graph
	var err error
	if *format == "text" {
		g, err = hcd.ReadEdgeListFile(*in)
	} else {
		g, err = hcd.ReadBinaryFile(*in)
	}
	if err != nil {
		return fail(err)
	}
	peelKernel, err := hcd.ParsePeelKernel(*kernel)
	if err != nil {
		fmt.Fprintf(stderr, "hcdtool: %v\n", err)
		return 2
	}
	opt := hcd.Options{Threads: *threads, Deadline: *deadline, SelfVerify: *verify, Kernel: peelKernel}
	// build runs the containment-aware pipeline: Ctrl-C cancels it, -deadline
	// bounds it, a parallel-path failure degrades to the serial baseline
	// (reported on stderr), and -verify validates the result before use.
	build := func() (*hcd.HCD, []int32, error) {
		h, core, rep, err := hcd.BuildCtx(ctx, g, opt)
		if rep != nil && rep.Fallback {
			fmt.Fprintf(stderr, "hcdtool: parallel build failed (%v); serial fallback used\n", rep.Cause)
		}
		if err != nil {
			return nil, nil, err
		}
		printPhases(stdout, "build", rep.Phases, rep.Elapsed)
		return h, core, nil
	}

	switch *cmd {
	case "stats":
		fmt.Fprintf(stdout, "n=%d m=%d avg-degree=%.2f max-degree=%d\n",
			g.NumVertices(), g.NumEdges(), g.AvgDegree(), g.MaxDegree())
		_, cc := g.ConnectedComponents()
		fmt.Fprintf(stdout, "components=%d\n", cc)

	case "decompose":
		start := time.Now()
		core := hcd.CoreDecomposition(g, opt)
		fmt.Fprintf(stdout, "core decomposition in %v\n", time.Since(start))
		hist := map[int32]int{}
		kmax := int32(0)
		for _, c := range core {
			hist[c]++
			if c > kmax {
				kmax = c
			}
		}
		fmt.Fprintf(stdout, "kmax=%d\n", kmax)
		var ks []int32
		for k := range hist {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		for _, k := range ks {
			fmt.Fprintf(stdout, "  shell %4d: %d vertices\n", k, hist[k])
		}

	case "build":
		start := time.Now()
		h, core, err := build()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "built HCD in %v: %s\n", time.Since(start), h.ComputeStats())
		_ = core
		if *dot != "" {
			f, err := os.Create(*dot)
			if err != nil {
				return fail(err)
			}
			if err := h.WriteDOT(f); err != nil {
				f.Close()
				return fail(err)
			}
			f.Close()
			fmt.Fprintf(stdout, "wrote DOT to %s\n", *dot)
		}
		if *svg != "" {
			f, err := os.Create(*svg)
			if err != nil {
				return fail(err)
			}
			if err := hcd.WriteSVG(f, h, hcd.SVGOptions{}); err != nil {
				f.Close()
				return fail(err)
			}
			f.Close()
			fmt.Fprintf(stdout, "wrote SVG to %s\n", *svg)
		}
		if *index != "" {
			f, err := os.Create(*index)
			if err != nil {
				return fail(err)
			}
			if err := h.WriteBinary(f); err != nil {
				f.Close()
				return fail(err)
			}
			f.Close()
			fmt.Fprintf(stdout, "wrote index to %s\n", *index)
		}

	case "search":
		m, err := hcd.MetricByName(*metric)
		if err != nil {
			return fail(err)
		}
		h, core, err := build()
		if err != nil {
			return fail(err)
		}
		s := hcd.NewSearcher(g, core, h, opt)
		start := time.Now()
		r, srep, err := s.BestCtx(ctx, m, opt)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "search (%s) in %v\n", m.Name(), time.Since(start))
		printPhases(stdout, "search", srep.Phases, srep.Elapsed)
		if r.Node == hcd.NilNode {
			fmt.Fprintln(stdout, "empty hierarchy")
			return 0
		}
		fmt.Fprintf(stdout, "best k-core: k=%d score=%.6f n=%d m=%d b=%d\n",
			r.K, r.Score, r.Values.N, r.Values.M, r.Values.B)
		// Top-scoring nodes.
		type cand struct {
			id    int
			score float64
		}
		cands := make([]cand, len(r.Scores))
		for i, sc := range r.Scores {
			cands[i] = cand{i, sc}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
		limit := min(*top, len(cands))
		for i := 0; i < limit; i++ {
			c := cands[i]
			fmt.Fprintf(stdout, "  #%d node %d (k=%d): %.6f\n", i+1, c.id, h.K[c.id], c.score)
		}

	case "densest":
		h, core, err := build()
		if err != nil {
			return fail(err)
		}
		start := time.Now()
		d := hcd.DensestSubgraph(g, core, h, opt)
		fmt.Fprintf(stdout, "PBKS-D in %v: k=%d avg-degree=%.4f |S*|=%d (%.4f%% of n)\n",
			time.Since(start), d.K, d.AvgDegree, len(d.Vertices),
			100*float64(len(d.Vertices))/float64(g.NumVertices()))

	case "clique":
		start := time.Now()
		mc := hcd.MaximumClique(g)
		fmt.Fprintf(stdout, "maximum clique in %v: size %d: %v\n", time.Since(start), len(mc), mc)

	case "bestk":
		m, err := hcd.MetricByName(*metric)
		if err != nil {
			return fail(err)
		}
		h, core, err := build()
		if err != nil {
			return fail(err)
		}
		s := hcd.NewSearcher(g, core, h, opt)
		k, score, _, err := s.BestKCtx(ctx, m, opt)
		if errors.Is(err, hcd.ErrNotTypeA) {
			fmt.Fprintf(stderr, "hcdtool: -metric %s: %v\n", m.Name(), err)
			return 2
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "best k for %s: k=%d score=%.6f\n", m.Name(), k, score)

	case "kcore":
		h, _, err := build()
		if err != nil {
			return fail(err)
		}
		q := hcd.NewLocalQuery(h)
		v, k := int32(*vFlag), int32(*kFlag)
		if v < 0 || int(v) >= g.NumVertices() {
			fmt.Fprintf(stderr, "hcdtool: vertex %d out of range\n", v)
			return 2
		}
		start := time.Now()
		kc := q.KCore(v, k)
		if kc == nil {
			fmt.Fprintf(stdout, "vertex %d has no %d-core (coreness %d)\n", v, k, q.CorenessOf(v))
			return 0
		}
		fmt.Fprintf(stdout, "the %d-core containing vertex %d has %d vertices (query %v)\n",
			k, v, len(kc), time.Since(start))

	case "truss":
		start := time.Now()
		ix, tr := hcd.TrussDecomposition(g)
		fmt.Fprintf(stdout, "truss decomposition in %v\n", time.Since(start))
		hist := map[int32]int{}
		kmax := int32(2)
		for _, k := range tr {
			hist[k]++
			if k > kmax {
				kmax = k
			}
		}
		fmt.Fprintf(stdout, "max trussness=%d\n", kmax)
		var ks []int32
		for k := range hist {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		for _, k := range ks {
			fmt.Fprintf(stdout, "  trussness %4d: %d edges\n", k, hist[k])
		}
		th := hcd.TrussHierarchy(g, ix, tr)
		fmt.Fprintf(stdout, "truss hierarchy: %d tree nodes\n", th.NumNodes())

	case "influence":
		// Default weights: vertex degree (a common engagement proxy).
		w := make([]float64, g.NumVertices())
		for v := range w {
			w[v] = float64(g.Degree(int32(v)))
		}
		start := time.Now()
		topr, err := hcd.TopInfluentialCommunities(g, w, int32(*kFlag), *top)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "top-%d %d-influential communities (degree weights) in %v\n",
			*top, *kFlag, time.Since(start))
		for i, c := range topr {
			fmt.Fprintf(stdout, "  #%d influence=%.1f |H|=%d\n", i+1, c.Influence, len(c.Vertices))
		}

	case "maintain":
		if *stream == "" {
			fmt.Fprintln(stderr, "hcdtool: -stream is required for maintain")
			return 2
		}
		ops, err := readStream(*stream)
		if err != nil {
			return fail(err)
		}
		var eng maintEngine
		switch *engine {
		case "traversal":
			eng = hcd.NewMaintainer(g)
		case "order":
			eng = hcd.NewOrderMaintainer(g)
		default:
			fmt.Fprintf(stderr, "hcdtool: unknown engine %q\n", *engine)
			return 2
		}
		start := time.Now()
		applied := 0
		for _, o := range ops {
			var err error
			if o.insert {
				err = eng.InsertEdge(o.u, o.v)
			} else {
				err = eng.RemoveEdge(o.u, o.v)
			}
			if err != nil {
				return fail(err)
			}
			applied++
		}
		el := time.Since(start)
		fmt.Fprintf(stdout, "applied %d operations with the %s engine in %v (%.1f µs/op)\n",
			applied, *engine, el, float64(el.Microseconds())/float64(max(applied, 1)))
		kmax := int32(0)
		for v := int32(0); v < int32(eng.NumVertices()); v++ {
			if c := eng.Coreness(v); c > kmax {
				kmax = c
			}
		}
		fmt.Fprintf(stdout, "final graph: m=%d kmax=%d\n", eng.NumEdges(), kmax)

	default:
		fmt.Fprintf(stderr, "hcdtool: unknown command %q\n", *cmd)
		return 2
	}
	return 0
}

// printPhases prints one line per pipeline phase: duration, share of the
// total, and worker balance when the obs layer recorded any stints.
func printPhases(w io.Writer, what string, phases []hcd.PhaseStat, total time.Duration) {
	if len(phases) == 0 {
		return
	}
	fmt.Fprintf(w, "%s phases:\n", what)
	for _, p := range phases {
		fmt.Fprintf(w, "  %-14s %12v", p.Name, p.Duration.Round(time.Microsecond))
		if total > 0 {
			fmt.Fprintf(w, " (%5.1f%%)", 100*float64(p.Duration)/float64(total))
		}
		if p.Stints > 0 {
			fmt.Fprintf(w, "  stints=%d workers<=%d chunks=%d skew=%.2f",
				p.Stints, p.MaxWorkers, p.Chunks, p.Skew)
		}
		fmt.Fprintln(w)
	}
}

// maintEngine is the shared surface of the two dynamic maintainers.
type maintEngine interface {
	InsertEdge(u, v int32) error
	RemoveEdge(u, v int32) error
	Coreness(v int32) int32
	NumVertices() int
	NumEdges() int64
}

type streamOp struct {
	insert bool
	u, v   int32
}

// readStream parses a mutation stream: one "i u v" (insert) or "d u v"
// (delete) per line; '#' lines are comments.
func readStream(path string) ([]streamOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []streamOp
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || (fields[0] != "i" && fields[0] != "d") {
			return nil, fmt.Errorf("stream line %d: want 'i u v' or 'd u v', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("stream line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("stream line %d: %v", lineNo, err)
		}
		ops = append(ops, streamOp{insert: fields[0] == "i", u: int32(u), v: int32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}
