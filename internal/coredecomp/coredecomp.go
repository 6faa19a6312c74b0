// Package coredecomp computes k-core decompositions: the coreness c(v) of
// every vertex (the largest k such that v belongs to a k-core).
//
// A serial baseline and two parallel kernels are provided:
//
//   - Serial: the Batagelj–Zaversnik bin-sort peeling algorithm [19],
//     O(m) time, used as the input stage of the serial LCPS pipeline.
//   - KernelLevelSync (ParallelCtx): a PKC/ParK-style level-synchronous
//     peeling [20, 24]: level k processes (in parallel) every remaining
//     vertex whose degree has fallen to k, cascading atomic degree
//     decrements. O(n·kmax + m) work, the same bound as PKC.
//   - KernelBuffered (BufferedCtx): the level structure above, with
//     cascaded adoptions staged in per-worker buffers and published by
//     one fetch-and-add reservation per flush (MaxTruss Scan/SubLevel).
//
// Kernel selection goes through PeelCtx / Peel; every kernel returns
// core arrays byte-identical to Serial's for every thread count. See
// DESIGN.md "Peeling kernels" for the protocols and proofs.
//
// The package also implements the paper's Algorithm 1: the parallel
// computation of the vertex-rank permutation (Definition 4: order by
// coreness, ties by id) and the k-shell index Hk used throughout PHCD and
// PBKS.
package coredecomp

import (
	"context"
	"sync/atomic"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// Serial computes the coreness of every vertex with the Batagelj–Zaversnik
// O(m) bin-sort peeling algorithm.
func Serial(g *graph.Graph) []int32 {
	core, _ := SerialOrder(g)
	return core
}

// SerialOrder is Serial but additionally returns the peeling order: the
// sequence in which Batagelj–Zaversnik removes the vertices. The order is
// a valid k-order (cores are non-decreasing along it, and every vertex's
// remaining degree at removal equals its coreness) — the starting state
// for order-based core maintenance.
func SerialOrder(g *graph.Graph) (core []int32, order []int32) {
	n := g.NumVertices()
	core = make([]int32, n)
	if n == 0 {
		return core, nil
	}
	deg := make([]int32, n)
	md := 0
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		deg[v] = int32(d)
		if d > md {
			md = d
		}
	}
	// bin[d] = start index in vert of vertices with current degree d.
	bin := make([]int32, md+2)
	for v := 0; v < n; v++ {
		bin[deg[v]+1]++
	}
	for d := 1; d <= md+1; d++ {
		bin[d] += bin[d-1]
	}
	vert := make([]int32, n) // vertices sorted by current degree
	pos := make([]int32, n)  // position of each vertex in vert
	cursor := make([]int32, md+1)
	copy(cursor, bin[:md+1])
	for v := 0; v < n; v++ {
		p := cursor[deg[v]]
		cursor[deg[v]]++
		vert[p] = int32(v)
		pos[v] = p
	}
	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = deg[v]
		for _, u := range g.Neighbors(v) {
			if deg[u] > deg[v] {
				// Move u to the front of its bin, then shrink its degree.
				du := deg[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					vert[pu], vert[pw] = w, u
					pos[u], pos[w] = pw, pu
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return core, vert
}

// Parallel computes coreness with PKC-style level-synchronous peeling
// using the given number of threads (0 = GOMAXPROCS). Thin wrapper over
// ParallelCtx; a contained worker panic re-raises on the calling
// goroutine as a *par.PanicError (pass-through when the kernel already
// produced one, so the worker's stack and cause chain survive the
// re-panic and errors.Is/As on a recovered value still reach e.g. an
// injected *faultinject.Fault).
func Parallel(g *graph.Graph, threads int) []int32 {
	core, err := ParallelCtx(context.Background(), g, threads)
	if err != nil {
		panic(par.AsPanicError(err))
	}
	return core
}

// ParallelCtx is Parallel with failure containment: worker panics surface
// as a *par.PanicError and a cancelled ctx aborts the peeling between
// levels (kmax levels, so cancellation latency is one level's work).
func ParallelCtx(ctx context.Context, g *graph.Graph, threads int) ([]int32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.StartSpan("coredecomp.parallel")
	defer sp.End()
	n := g.NumVertices()
	core := make([]int32, n)
	if n == 0 {
		return core, ctx.Err()
	}
	p := par.Threads(threads)
	deg := make([]atomic.Int32, n)
	for v := 0; v < n; v++ {
		deg[v].Store(int32(g.Degree(int32(v))))
	}
	var visited atomic.Int64
	frontiers := make([][]int32, p)
	// Active-list compaction (PKC's key optimisation): instead of
	// rescanning all n vertices at every level, each thread keeps the
	// shrinking list of vertices still above the current level, so the
	// total scan work is O(n + Σ_v c(v)) rather than O(n · kmax).
	actives := make([][]int32, p)
	err := par.ForErr(ctx, p, p, func(tlo, thi int) error {
		for t := tlo; t < thi; t++ {
			lo, hi := t*n/p, (t+1)*n/p
			buf := make([]int32, 0, hi-lo)
			for v := lo; v < hi; v++ {
				buf = append(buf, int32(v))
			}
			actives[t] = buf
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for level := int32(0); visited.Load() < int64(n); level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// One trace span per level-synchronous round (a failed round's
		// span is simply dropped, never recorded).
		rsp := obs.StartSpanArg("peel.round", int64(level))
		// Phase 1 (with a trailing barrier): collect the frontier of
		// vertices whose degree equals `level` and compact the active
		// list. No decrements run during this phase, so each frontier
		// vertex is collected exactly once by the thread owning it.
		err := par.ForErr(ctx, p, p, func(tlo, thi int) error {
			faultinject.Maybe("coredecomp.collect")
			for t := tlo; t < thi; t++ {
				buf := frontiers[t][:0]
				act := actives[t]
				w := 0
				for _, v := range act {
					d := deg[v].Load()
					if d == level {
						buf = append(buf, v)
					} else if d > level {
						act[w] = v
						w++
					}
					// d < level: already processed at an earlier level via
					// a cascade; drop it from the active list.
				}
				actives[t] = act[:w]
				frontiers[t] = buf
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		size := int64(0)
		for t := range frontiers {
			size += int64(len(frontiers[t]))
		}
		levelsyncStats.rounds.Inc()
		levelsyncStats.frontier.ObserveN(size)
		// Phase 2: process the frontier, cascading atomic decrements. A
		// vertex can now reach `level` only through a decrement, and only
		// the thread whose decrement lands exactly on `level` adopts it.
		err = par.ForErr(ctx, p, p, func(tlo, thi int) error {
			faultinject.Maybe("coredecomp.peel")
			for t := tlo; t < thi; t++ {
				buf := frontiers[t]
				processed := int64(len(buf))
				for len(buf) > 0 {
					v := buf[len(buf)-1]
					buf = buf[:len(buf)-1]
					core[v] = level
					for _, u := range g.Neighbors(v) {
						// Decrement deg[u], clamped at level.
						for {
							d := deg[u].Load()
							if d <= level {
								break
							}
							if deg[u].CompareAndSwap(d, d-1) {
								if d-1 == level {
									buf = append(buf, u)
									processed++
								}
								break
							}
						}
					}
				}
				frontiers[t] = buf
				visited.Add(processed)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		rsp.End()
	}
	return core, nil
}

// KMax returns the graph degeneracy: the largest coreness value (0 for an
// empty slice).
func KMax(core []int32) int32 {
	var km int32
	for _, c := range core {
		if c > km {
			km = c
		}
	}
	return km
}

// Ranking is the output of Algorithm 1: the vertex-rank permutation and
// the k-shell index.
type Ranking struct {
	// Order lists all vertices sorted by ascending vertex rank
	// (coreness, then id): Order[r] is the vertex with rank r.
	Order []int32
	// Rank is the inverse permutation: Rank[v] = vertex rank of v.
	Rank []int32
	// ShellStart[k] is the index in Order where the k-shell begins;
	// the k-shell Hk is Order[ShellStart[k]:ShellStart[k+1]], sorted by id.
	// len(ShellStart) = kmax + 2.
	ShellStart []int64
	// KMax is the graph degeneracy.
	KMax int32
}

// Shell returns Hk, the vertices of coreness k, sorted by ascending id.
func (r *Ranking) Shell(k int32) []int32 {
	return r.Order[r.ShellStart[k]:r.ShellStart[k+1]]
}

// RankVertices implements Algorithm 1 as one par.GroupBy counting-sort
// scatter: grouping vertex ids by coreness (stably, so each shell stays
// sorted by id) and concatenating the groups in ascending k is exactly the
// vertex-rank order. O(n + kmax·p) work; the output is identical for every
// thread count.
func RankVertices(core []int32, threads int) *Ranking {
	n := len(core)
	kmax := KMax(core)
	r := &Ranking{
		Rank: make([]int32, n),
		KMax: kmax,
	}
	if n == 0 {
		r.Order = make([]int32, 0)
		r.ShellStart = make([]int64, kmax+2)
		return r
	}
	r.ShellStart, r.Order = par.GroupBy(n, int(kmax)+1, threads,
		func(i int) int32 { return core[i] })
	//hcdlint:allow panic-safety pure index scatter inverting a permutation just built above; no ctx in the infallible Ranking API and nothing here can panic short of memory corruption
	par.ForEach(n, threads, func(i int) {
		r.Rank[r.Order[i]] = int32(i)
	})
	return r
}
