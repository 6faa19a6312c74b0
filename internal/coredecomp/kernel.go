package coredecomp

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"hcd/internal/graph"
	"hcd/internal/obs"
	"hcd/internal/par"
)

// Kernel names one of the pluggable peeling kernels. The zero value
// selects DefaultKernel, so callers that never set a kernel keep the
// production path.
type Kernel string

const (
	// KernelLevelSync is the PKC/ParK level-synchronous kernel
	// (ParallelCtx): per-element CAS-clamped decrements, one barrier per
	// coreness level.
	KernelLevelSync Kernel = "levelsync"
	// KernelBuffered is the buffered-frontier kernel (BufferedCtx):
	// workers stage cascaded vertices in fixed per-worker buffers and
	// publish each buffer with a single fetch-and-add reservation into a
	// shared next-frontier array.
	KernelBuffered Kernel = "buffered"
)

// DefaultKernel is the kernel used when callers leave the choice empty.
// The buffered kernel replaces the level-synchronous CAS loop with one
// fetch-and-add per decrement, scales its worker fan-out to the
// frontier and the hardware, and runs single-worker sub-rounds
// lock-free. On the perfbench graphs it is the fastest peel at one
// thread, and at two threads on rmat17; levelsync stays selectable
// because it is faster on onion17 at two threads (EXPERIMENTS.md, "Peel
// kernels on the perfbench graphs").
const DefaultKernel = KernelBuffered

// Kernels lists every selectable peeling kernel, in presentation order.
func Kernels() []Kernel {
	return []Kernel{KernelLevelSync, KernelBuffered}
}

// ParseKernel resolves a kernel name from flag/config input. The empty
// string resolves to DefaultKernel.
func ParseKernel(s string) (Kernel, error) {
	k := Kernel(s)
	switch k {
	case "":
		return DefaultKernel, nil
	case KernelLevelSync, KernelBuffered:
		return k, nil
	}
	return "", fmt.Errorf("coredecomp: unknown peeling kernel %q (have %v)", s, Kernels())
}

// PeelCtx computes the core decomposition with the selected kernel
// (empty = DefaultKernel), with the shared containment contract: worker
// panics surface as a *par.PanicError and a cancelled ctx aborts
// between rounds. All kernels return byte-identical core arrays for
// every thread count (coreness is unique, and each kernel's final pass
// is deterministic), so selection is purely a performance decision.
func PeelCtx(ctx context.Context, g *graph.Graph, threads int, kernel Kernel) ([]int32, error) {
	if kernel == "" {
		kernel = DefaultKernel
	}
	switch kernel {
	case KernelLevelSync:
		return ParallelCtx(ctx, g, threads)
	case KernelBuffered:
		return BufferedCtx(ctx, g, threads)
	}
	return nil, fmt.Errorf("coredecomp: unknown peeling kernel %q (have %v)", kernel, Kernels())
}

// Peel is PeelCtx without a context, re-panicking on failure. The panic
// value is always a *par.PanicError (pass-through when the kernel
// already produced one), so a recover + errors.As still reaches the
// original cause — e.g. an injected *faultinject.Fault.
func Peel(g *graph.Graph, threads int, kernel Kernel) []int32 {
	core, err := PeelCtx(context.Background(), g, threads, kernel)
	if err != nil {
		panic(par.AsPanicError(err))
	}
	return core
}

// peelBufCap is the per-worker staging-buffer capacity (in vertices) of
// the buffered publication path: large enough to amortise the
// fetch-and-add reservation to a fraction of an atomic op per vertex,
// small enough to live on the worker's stack.
const peelBufCap = 256

// flushFrontier publishes buf into dst with a single fetch-and-add
// reservation on tail: the only cross-worker synchronisation of the
// buffered publication path. Callers guarantee dst has capacity for
// every published vertex (each vertex is adopted at most once), so the
// reserved window never overruns.
func flushFrontier(dst []int32, tail *atomic.Int64, buf []int32) {
	base := tail.Add(int64(len(buf))) - int64(len(buf))
	copy(dst[base:], buf)
}

// peelWorkers bounds a round's worker fan-out by the work available —
// one worker per peelFanoutGrain work items — and by the hardware
// parallelism actually on offer (GOMAXPROCS), both capped at the
// configured thread count. Peeling frontiers shrink toward the
// high-coreness tail, and spawning p goroutines (plus their barrier) to
// process a few hundred vertices costs more than the processing; par
// runs single-worker rounds inline on the calling goroutine. The
// GOMAXPROCS cap matters for the same reason at the other end: the
// kernels are CPU-bound and never block, so workers beyond the
// scheduler's processor count only time-slice against each other and
// pay spawn + barrier overhead per round for it.
func peelWorkers(p int, work int64) int {
	w := int(work/peelFanoutGrain) + 1
	if w > p {
		w = p
	}
	if maxp := runtime.GOMAXPROCS(0); w > maxp {
		w = maxp
	}
	return w
}

// peelFanoutGrain is the work-per-worker floor of peelWorkers. A
// variable only so tests can lower it to force the multi-worker peel
// paths onto small graphs (e.g. under -race).
var peelFanoutGrain = int64(4096)

// peelStats is the per-kernel frontier telemetry: how many rounds a
// kernel ran and how large its frontiers were explains *why* it wins or
// loses on a dataset shape (many tiny levels favour buffered's adaptive
// fan-out).
type peelStats struct {
	rounds   *obs.Counter
	frontier *obs.Histogram
}

// newPeelStats registers one kernel's telemetry pair. Single call site
// per metric base name; the kernel label distinguishes the series.
func newPeelStats(kernel Kernel) peelStats {
	return peelStats{
		rounds: obs.NewCounter(obs.Name("hcd_peel_rounds_total", "kernel", string(kernel)),
			"peeling rounds executed, by kernel"),
		frontier: obs.NewHistogram(obs.Name("hcd_peel_frontier_vertices", "kernel", string(kernel)),
			"frontier size per peeling round (vertices), by kernel"),
	}
}

var (
	levelsyncStats = newPeelStats(KernelLevelSync)
	bufferedStats  = newPeelStats(KernelBuffered)
)
