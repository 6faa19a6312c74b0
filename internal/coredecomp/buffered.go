package coredecomp

import (
	"context"
	"sync/atomic"

	"hcd/internal/faultinject"
	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// bufferedGrain is the dynamic-scheduling chunk size (frontier
// vertices) of the buffered kernel's peel rounds. Work per vertex is
// its degree, so chunks are degree-skewed; the shared-counter chunk
// grab rebalances them.
const bufferedGrain = 256

// BufferedCtx computes coreness with buffered-frontier peeling: the
// level structure of ParallelCtx, but cascaded adoptions are staged in
// fixed-size per-worker buffers and published into a shared
// next-frontier array with one fetch-and-add reservation per flush
// (the MaxTruss Scan/SubLevel scheme), replacing the per-element
// CAS-retry adoption path with a single unconditional fetch-and-add
// per decrement.
//
// Why this is cheaper than ParallelCtx:
//
//   - Decrementing deg[u] is one atomic Add instead of a Load+CAS loop
//     that retries under contention: exactly one worker observes the
//     decrement land on `level` (atomic adds pass each value exactly
//     once), so adoption needs no compare-and-swap. A racing stale
//     decrement can overshoot below level, but only after the adoption
//     already happened, and later levels drop d < level vertices from
//     the active lists, so no repair pass is needed.
//   - Frontier publication costs one fetch-and-add per peelBufCap
//     vertices instead of per-vertex synchronisation.
//   - Worker fan-out follows the frontier (peelWorkers): the many tiny
//     sub-rounds of the high-coreness tail run inline instead of
//     paying goroutine spawn + barrier for a handful of vertices, and
//     fan-out never exceeds GOMAXPROCS — oversubscribed workers on a
//     CPU-bound kernel only time-slice against each other.
//   - A sub-round that peelWorkers sizes to one worker takes a scalar
//     path with no lock-prefixed instructions and no data-dependent
//     branch: it reads and writes the degree array with plain loads and
//     stores, and the decrement and the adoption test are arithmetic.
//     (An atomic Store is not a plain move: on amd64 it compiles to a
//     locked XCHG, so the scalar path must not use sync/atomic at all.)
//
// One degree array serves both kinds of sub-round. The multi-worker
// bodies access it through the sync/atomic functions; the one-worker
// body and the initial fill access it plainly. The two never overlap:
// every phase is one par call, which joins its workers before the next
// phase starts, and that join orders every plain access against every
// atomic one.
//
// Containment contract of ParallelCtx: worker panics surface as a
// *par.PanicError, a cancelled ctx aborts between rounds.
func BufferedCtx(ctx context.Context, g *graph.Graph, threads int) ([]int32, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.StartSpan("coredecomp.buffered")
	defer sp.End()
	n := g.NumVertices()
	core := make([]int32, n)
	if n == 0 {
		return core, ctx.Err()
	}
	p := par.Threads(threads)
	deg := make([]int32, n)
	// Active-list compaction as in ParallelCtx: each slot keeps the
	// shrinking list of vertices still above the current level.
	actives := make([][]int32, p)
	err := par.ForErr(ctx, p, p, func(tlo, thi int) error {
		for t := tlo; t < thi; t++ {
			lo, hi := t*n/p, (t+1)*n/p
			buf := make([]int32, 0, hi-lo)
			for v := lo; v < hi; v++ {
				//hcdlint:allow atomic-discipline the fill writes disjoint slots before any sub-round runs; the par join orders it before every atomic access
				deg[v] = int32(g.Degree(int32(v)))
				buf = append(buf, int32(v))
			}
			actives[t] = buf
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// curr/next are the shared frontier arrays the buffers flush into.
	// Every vertex enters a frontier exactly once across the whole run
	// (collected once in phase 1, or adopted by the unique worker whose
	// decrement lands on the level), so capacity n never overruns.
	curr := make([]int32, n)
	next := make([]int32, n)
	var currTail, nextTail atomic.Int64
	visited := int64(0)
	for level := int32(0); visited < int64(n); level++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rsp := obs.StartSpanArg("buffered.round", int64(level))
		// Phase 1 (barrier): collect this level's seed frontier from the
		// active lists, compacting them. No decrements run here, so each
		// seed vertex is collected exactly once by its owning slot.
		currTail.Store(0)
		err := par.ForErr(ctx, p, peelWorkers(p, int64(n)-visited), func(tlo, thi int) error {
			faultinject.Maybe("coredecomp.buffered.collect")
			var stage [peelBufCap]int32
			sn := 0
			for t := tlo; t < thi; t++ {
				act := actives[t]
				w := 0
				for _, v := range act {
					// Collection only reads; the atomic load is a plain
					// move, so one body serves every worker count.
					d := atomic.LoadInt32(&deg[v])
					if d == level {
						stage[sn] = v
						sn++
						if sn == len(stage) {
							flushFrontier(curr, &currTail, stage[:sn])
							sn = 0
						}
					} else if d > level {
						act[w] = v
						w++
					}
					// d < level: adopted by a cascade at an earlier level;
					// drop it from the active list.
				}
				actives[t] = act[:w]
			}
			if sn > 0 {
				flushFrontier(curr, &currTail, stage[:sn])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Sub-rounds: peel the frontier, staging cascaded adoptions into
		// next. A vertex reaches `level` only through a decrement, and
		// only the worker whose Add lands exactly on `level` adopts it.
		for tail := currTail.Load(); tail > 0; {
			visited += tail
			bufferedStats.rounds.Inc()
			bufferedStats.frontier.ObserveN(tail)
			nextTail.Store(0)
			cl, nx := curr, next
			workers := peelWorkers(p, tail)
			var err error
			if workers == 1 {
				// Single-worker sub-round: the body runs alone (inline on
				// the calling goroutine), so it reads and writes deg with
				// plain loads and stores, and the next frontier grows
				// under a local cursor. The adoption rule is unchanged —
				// decrement while d > level, adopt when the decrement
				// lands on level — but both tests are arithmetic, so a
				// neighbour costs no data-dependent branch. Still routed
				// through par so an injected panic at the site is
				// contained identically to the concurrent path.
				nt := int64(0)
				err = par.ForChunkedErr(ctx, int(tail), 1, bufferedGrain, func(lo, hi int) error {
					faultinject.Maybe("coredecomp.buffered.peel")
					for i := lo; i < hi; i++ {
						v := cl[i]
						core[v] = level
						for _, u := range g.Neighbors(v) {
							//hcdlint:allow atomic-discipline a one-worker sub-round runs alone between par joins, which order it against the multi-worker rounds' atomic accesses
							du := &deg[u]
							d := *du
							// (level-d)>>31 is -1 when d > level, else 0.
							*du = d + (level-d)>>31
							// u is adopted when d was level+1, i.e. x == 0,
							// and (x|-x)>>31 is 1 for every other x. nx[nt]
							// is in range: this frontier, nx[:nt] and the
							// vertices peeled before are disjoint, so nt < n.
							nx[nt] = u
							x := uint32(d - level - 1)
							nt += int64(1 ^ (x|-x)>>31)
						}
					}
					return nil
				})
				nextTail.Store(nt)
			} else {
				err = par.ForChunkedErr(ctx, int(tail), workers, bufferedGrain, func(lo, hi int) error {
					//hcdlint:allow site-hygiene the scalar and concurrent bodies are one logical peel phase; a fault rule must cover whichever one the fan-out picks, so they share a site and its hit counter on purpose
					faultinject.Maybe("coredecomp.buffered.peel")
					var stage [peelBufCap]int32
					sn := 0
					for i := lo; i < hi; i++ {
						v := cl[i]
						core[v] = level
						for _, u := range g.Neighbors(v) {
							if atomic.LoadInt32(&deg[u]) > level {
								if d := atomic.AddInt32(&deg[u], -1); d == level {
									stage[sn] = u
									sn++
									if sn == len(stage) {
										flushFrontier(nx, &nextTail, stage[:sn])
										sn = 0
									}
								}
							}
						}
					}
					if sn > 0 {
						flushFrontier(nx, &nextTail, stage[:sn])
					}
					return nil
				})
			}
			if err != nil {
				return nil, err
			}
			curr, next = next, curr
			tail = nextTail.Load()
		}
		rsp.End()
	}
	return core, nil
}
