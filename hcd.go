// Package hcd is a parallel hierarchical core decomposition (HCD) library:
// a from-scratch Go implementation of "Hierarchical Core Decomposition in
// Parallel: From Construction to Subgraph Search" (Chu, Zhang, Zhang, Lin,
// Zhang — ICDE 2022).
//
// The HCD of a graph organises all of its k-cores, for every k, into a
// forest: each tree node holds the vertices of coreness exactly k inside
// one k-core, and tree edges record k-core containment. On top of that
// index the library answers subgraph-search queries — "which k-core has
// the best community score?" — for any metric over the standard primary
// values (vertex/edge/boundary/triangle/triplet counts).
//
// Three pipelines, all exposed here:
//
//	g, _ := hcd.NewGraph(n, edges)
//	core := hcd.CoreDecomposition(g, hcd.Options{})       // PKC-style parallel peeling
//	h := hcd.BuildHCD(g, core, hcd.Options{})             // PHCD (parallel, Algorithm 2)
//	s := hcd.NewSearcher(g, core, h, hcd.Options{})       // PBKS preprocessing
//	r := s.Best(hcd.AverageDegree(), hcd.Options{})       // best k-core by metric
//
// Serial baselines (Batagelj-Zaversnik, LCPS, BKS) are exposed alongside
// the parallel algorithms so the paper's experiments can be reproduced;
// see DESIGN.md and EXPERIMENTS.md at the repository root.
package hcd

import (
	"io"
	"time"

	"hcd/internal/clique"
	core2 "hcd/internal/core"
	"hcd/internal/coredecomp"
	"hcd/internal/densest"
	"hcd/internal/graph"
	"hcd/internal/hierarchy"
	"hcd/internal/lcps"
	"hcd/internal/metrics"
	"hcd/internal/obs"
	"hcd/internal/search"
	"hcd/internal/shellidx"
)

// PeelKernel selects one of the pluggable core-decomposition peeling
// kernels. The zero value selects the journal-chosen default
// (DefaultPeelKernel); the losing kernels stay selectable so new
// hardware can re-run the selection experiment (see EXPERIMENTS.md
// "Peeling kernels").
type PeelKernel = coredecomp.Kernel

const (
	// PeelLevelSync is PKC-style level-synchronous peeling with
	// per-element CAS-clamped decrements.
	PeelLevelSync PeelKernel = coredecomp.KernelLevelSync
	// PeelBuffered stages cascaded frontier vertices in per-worker
	// buffers published by one fetch-and-add reservation per flush.
	PeelBuffered PeelKernel = coredecomp.KernelBuffered
	// PeelHIndex iterates local h-index updates over a worklist to
	// fixpoint, with no level barriers.
	PeelHIndex PeelKernel = coredecomp.KernelHIndex
	// DefaultPeelKernel is the kernel an unset Options.Kernel resolves
	// to, selected by the perf journal (BENCH_phcd.json).
	DefaultPeelKernel = coredecomp.DefaultKernel
)

// PeelKernels lists every selectable peeling kernel.
func PeelKernels() []PeelKernel { return coredecomp.Kernels() }

// ParsePeelKernel resolves a kernel name from flag/config input; the
// empty string resolves to DefaultPeelKernel.
func ParsePeelKernel(s string) (PeelKernel, error) { return coredecomp.ParseKernel(s) }

// Options tunes the parallel algorithms.
type Options struct {
	// Threads is the number of goroutines used by parallel phases.
	// 0 means runtime.GOMAXPROCS(0); 1 runs inline with no scheduling.
	Threads int
	// Kernel selects the core-decomposition peeling kernel used by
	// CoreDecomposition, Build, BuildAndIndex and the Ctx pipelines.
	// The zero value selects DefaultPeelKernel. All kernels produce
	// byte-identical coreness arrays; this is a performance choice only.
	Kernel PeelKernel
	// Deadline, when positive, bounds a BuildCtx call: the build's context
	// is wrapped with this timeout and a build that overruns returns
	// context.DeadlineExceeded. Ignored by the non-context entry points.
	Deadline time.Duration
	// SelfVerify makes BuildCtx run hierarchy validation on the result
	// before returning it, so a wrong-but-not-crashing parallel build is
	// caught (and replaced by the serial baseline's output) instead of
	// being served. Costs one extra pass over every k-core.
	SelfVerify bool
}

// Re-exported foundation types. The concrete implementations live in
// internal packages; these aliases are the supported public surface.
type (
	// Graph is an immutable undirected simple graph in CSR form.
	Graph = graph.Graph
	// Edge is one undirected input edge (any orientation).
	Edge = graph.Edge
	// HCD is the hierarchical core decomposition forest.
	HCD = hierarchy.HCD
	// NodeID identifies one k-core tree node of an HCD.
	NodeID = hierarchy.NodeID
	// Metric scores a subgraph from its primary values.
	Metric = metrics.Metric
	// PrimaryValues are a subgraph's n/m/boundary/triangle/triplet counts.
	PrimaryValues = metrics.PrimaryValues
	// SearchResult reports the winning k-core of a subgraph search.
	SearchResult = search.Result
	// SearchReport is the per-phase breakdown of one BestCtx call.
	SearchReport = search.Report
	// PhaseStat is one pipeline phase's duration and worker statistics,
	// as reported in BuildReport.Phases and SearchReport.Phases.
	PhaseStat = obs.PhaseStat
	// DensestSolution is an approximate densest subgraph.
	DensestSolution = densest.Solution
)

// NilNode is the absent NodeID (parent of a root, result of an empty search).
const NilNode = hierarchy.Nil

// NewGraph builds a simple undirected graph with n vertices from an edge
// list: self-loops are dropped, duplicates and reverse orientations are
// collapsed. Vertex ids must lie in [0, n).
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// ReadEdgeList parses a SNAP-style whitespace edge list ('#'/'%' comments
// allowed), remapping sparse ids densely and symmetrising direction.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadEdgeListFile is ReadEdgeList over a file path.
func ReadEdgeListFile(path string) (*Graph, error) { return graph.ReadEdgeListFile(path) }

// ReadBinaryFile reloads a graph written with WriteBinaryFile.
func ReadBinaryFile(path string) (*Graph, error) { return graph.ReadBinaryFile(path) }

// CoreDecomposition computes every vertex's coreness with the selected
// parallel peeling kernel (Options.Kernel; the default is the
// journal-chosen DefaultPeelKernel).
func CoreDecomposition(g *Graph, opt Options) []int32 {
	return coredecomp.Peel(g, opt.Threads, opt.Kernel)
}

// CoreDecompositionSerial computes coreness with the Batagelj-Zaversnik
// O(m) serial algorithm.
func CoreDecompositionSerial(g *Graph) []int32 { return coredecomp.Serial(g) }

// BuildHCD constructs the hierarchical core decomposition in parallel with
// PHCD (Algorithm 2 of the paper). core must be g's core decomposition.
func BuildHCD(g *Graph, core []int32, opt Options) *HCD {
	return core2.PHCD(g, core, opt.Threads)
}

// BuildHCDSerial constructs the HCD with the serial LCPS baseline
// (Matula-Beck priority search, O(m)).
func BuildHCDSerial(g *Graph, core []int32) *HCD { return lcps.Build(g, core) }

// Build is the one-call pipeline: parallel core decomposition followed by
// PHCD. It returns the hierarchy and the coreness array.
func Build(g *Graph, opt Options) (*HCD, []int32) {
	core := CoreDecomposition(g, opt)
	return BuildHCD(g, core, opt), core
}

// BuildAndIndex is the full pipeline with shared preprocessing: it computes
// the core decomposition, builds the coreness-ordered adjacency layout
// (internal/shellidx) once, and reuses it for both PHCD and the PBKS
// searcher. The layout costs one extra O(m) pass but removes the
// shallower-neighbor half of PHCD's edge scans and the searcher's entire
// 2m-edge preprocessing scan, so it is the fastest route whenever a
// hierarchy will also be searched; see DESIGN.md ("When to pay for the
// layout").
func BuildAndIndex(g *Graph, opt Options) (*HCD, []int32, *Searcher) {
	core := CoreDecomposition(g, opt)
	r := coredecomp.RankVertices(core, opt.Threads)
	lay := shellidx.Build(g, core, r, opt.Threads)
	h := core2.PHCDWithLayout(g, core, lay, opt.Threads)
	s := &Searcher{ix: search.NewIndexWithLayout(g, core, h, lay, opt.Threads), h: h}
	return h, core, s
}

// Searcher answers best-k-core queries over one HCD with PBKS. Build it
// once (the §IV-A preprocessing runs here) and reuse it across metrics.
type Searcher struct {
	ix *search.Index
	h  *HCD
}

// NewSearcher prepares PBKS for the given decomposition.
func NewSearcher(g *Graph, core []int32, h *HCD, opt Options) *Searcher {
	return &Searcher{ix: search.NewIndex(g, core, h, opt.Threads), h: h}
}

// Best returns the k-core with the highest score under the metric, with
// per-node scores attached. Deterministic: ties break to lower node ids.
func (s *Searcher) Best(m Metric, opt Options) SearchResult {
	return s.ix.Search(m, opt.Threads)
}

// BestConstrained is Best restricted to k-cores whose vertex count lies in
// [minSize, maxSize] (maxSize <= 0 means unbounded) — the size-constrained
// k-core search of §VI. Node is NilNode when nothing qualifies.
func (s *Searcher) BestConstrained(m Metric, minSize, maxSize int64, opt Options) SearchResult {
	return s.ix.SearchConstrained(m, minSize, maxSize, opt.Threads)
}

// BestPerLevel returns the best-scoring k-core of every coreness level
// (indexed by k; Node == NilNode for levels with no k-core) — the per-k
// view behind §VI's "finding the best k" analyses.
func (s *Searcher) BestPerLevel(m Metric, opt Options) []SearchResult {
	return s.ix.BestPerLevel(m, opt.Threads)
}

// BestK evaluates the §VI extension: the best k-core *set* (all k-cores at
// one level, possibly disconnected) for a Type A metric. Returns the best
// k, its score, and the score of every level. It panics on a Type B
// metric; BestKCtx returns ErrNotTypeA instead.
func (s *Searcher) BestK(m Metric, opt Options) (k int32, score float64, all []float64) {
	return s.ix.BestKSet(m, opt.Threads)
}

// CoreVertices materialises the original k-core of a tree node (the node's
// vertices plus all descendants').
func (s *Searcher) CoreVertices(id NodeID) []int32 { return s.h.CoreVertices(id) }

// Hierarchy returns the HCD forest the searcher answers queries over —
// the accessor a snapshot-serving tier uses to expose hierarchy
// statistics and reconstruct cores without carrying the HCD alongside
// the Searcher separately.
func (s *Searcher) Hierarchy() *HCD { return s.h }

// NumNodes reports the number of k-core tree nodes in the underlying
// hierarchy.
func (s *Searcher) NumNodes() int { return s.h.NumNodes() }

// IndexBytes reports the searcher's exclusive index footprint in bytes
// (the coreness-ordered layout or the gt/eq preprocessing arrays,
// whichever the searcher owns, plus the Type-B forward lists once the
// first Type-B query has built them), computed deterministically from
// array lengths. The graph and hierarchy are shared structures accounted
// separately (Graph.Bytes, HCD.Bytes).
func (s *Searcher) IndexBytes() int64 { return s.ix.Bytes() }

// Built-in community scoring metrics (§II-D), all normalised so higher is
// better.
func AverageDegree() Metric         { return &metrics.AverageDegree{} }
func InternalDensity() Metric       { return &metrics.InternalDensity{} }
func CutRatio() Metric              { return &metrics.CutRatio{} }
func Conductance() Metric           { return &metrics.Conductance{} }
func Modularity() Metric            { return &metrics.Modularity{} }
func ClusteringCoefficient() Metric { return &metrics.ClusteringCoefficient{} }

// Metrics returns every built-in metric.
func Metrics() []Metric { return metrics.All() }

// MetricTerm is one (metric, coefficient) component of a WeightedMetric.
type MetricTerm = metrics.WeightedTerm

// WeightedMetric assembles a new metric as a linear combination of
// existing ones (§VI: "new or assembled community scoring metrics"); it
// plugs into Best/BestConstrained like any built-in metric.
func WeightedMetric(label string, terms ...MetricTerm) Metric {
	return &metrics.Weighted{Label: label, Terms: terms}
}

// MetricByName resolves a metric by its Name() string.
func MetricByName(name string) (Metric, error) { return metrics.ByName(name) }

// DensestSubgraph returns a 0.5-approximate densest subgraph: the k-core
// with the highest average degree, found by PBKS-D. The returned solution
// is never worse than the kmax-core, the classical 0.5-approximation.
func DensestSubgraph(g *Graph, core []int32, h *HCD, opt Options) DensestSolution {
	ix := search.NewIndex(g, core, h, opt.Threads)
	return densest.PBKSD(ix, opt.Threads)
}

// ErrNotTypeA is returned by Searcher.BestKCtx for a metric that is not
// Type A: the best-k-set extension counts only the vertices, edges and
// boundary edges Type A metrics read.
var ErrNotTypeA = search.ErrNotTypeA

// ErrTooLarge is returned by DensestExact for graphs beyond the exact
// solver's enumeration limit (20 vertices).
var ErrTooLarge = densest.ErrTooLarge

// DensestExact computes the exact densest subgraph by subset enumeration.
// Exponential: it returns ErrTooLarge for graphs with more than 20
// vertices. It exists so small examples can verify the approximate
// solvers' 0.5 bound.
func DensestExact(g *Graph) (DensestSolution, error) { return densest.ExactTiny(g) }

// MaximumClique returns one maximum clique of g (branch and bound with
// coreness pruning). Exact but exponential in the worst case; fast on
// sparse real-world-like graphs.
func MaximumClique(g *Graph) []int32 { return clique.Max(g) }
