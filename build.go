package hcd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	core2 "hcd/internal/core"
	"hcd/internal/coredecomp"
	"hcd/internal/hierarchy"
	"hcd/internal/lcps"
	"hcd/internal/obs"
	"hcd/internal/par"
	"hcd/internal/search"
	"hcd/internal/shellidx"
)

// ErrVerification is the sentinel wrapped by every self-verification
// failure BuildCtx / BuildAndIndexCtx cannot recover from (the serial
// fallback itself produced an invalid hierarchy, or the rebuild after a
// failed validation failed validation again). Test with errors.Is.
var ErrVerification = errors.New("hcd: self-verification failed")

// validate is hierarchy.Validate, indirected so tests can force the
// otherwise-unreachable double-failure error paths.
var validate = hierarchy.Validate

// BuildReport describes how a BuildCtx call actually ran: whether the
// parallel path succeeded, whether the serial fallback had to take over
// (and why), whether the result was verified, and how long each pipeline
// phase took.
type BuildReport struct {
	// Threads is the resolved worker count the parallel path used.
	Threads int
	// Fallback is true when the parallel pipeline failed and the result
	// was produced by the serial baseline instead.
	Fallback bool
	// Cause is the error recovered from the parallel pipeline when
	// Fallback is true (typically a *par.PanicError), or the validation
	// error that triggered a SelfVerify rebuild. Nil on the fast path.
	Cause error
	// Verified is true when Options.SelfVerify was set and the returned
	// hierarchy passed hierarchy validation.
	Verified bool
	// Elapsed is the wall-clock duration of the whole build.
	Elapsed time.Duration
	// Phases is the per-phase breakdown, in execution order. Durations
	// sum to ≈ Elapsed; the worker-balance statistics come from the obs
	// layer. A phase that failed (triggering the fallback) still appears,
	// with the time it consumed.
	Phases []PhaseStat
}

// runPhase runs f as one named pipeline phase: an obs phase span is
// opened around it (arming the par worker hooks) and the measured
// PhaseStat is appended to the report. Returns f's error. The phase is
// timed from before its opening memory capture to after its closing one:
// each capture stops the world, so timing it outside the phase would
// leave it in no phase at all, and the phases would stop adding up to
// Elapsed.
func (rep *BuildReport) runPhase(name string, f func() error) error {
	start := time.Now()
	m0 := obs.ReadMem()
	//hcdlint:allow site-hygiene phase names flow in from the fixed caller set below (peel, phcd, rank+layout, index, fallback, verify), each a literal at its call site
	sp := obs.StartPhase(name)
	err := f()
	sp.End()
	mem := obs.ReadMem().Sub(m0)
	//hcdlint:allow site-hygiene phase name flows in from the fixed caller set below, each a literal at its call site
	rep.Phases = append(rep.Phases, obs.NewPhaseStat(name, time.Since(start), sp.WorkerStats()).WithMem(mem))
	return err
}

// BuildCtx is Build with failure containment, cooperative cancellation
// and optional self-verification — the graceful-degradation entry point:
//
//   - A worker panic anywhere in the parallel pipeline (core
//     decomposition, PHCD) is recovered, reported in BuildReport.Cause,
//     and the build falls back to the serial baseline
//     (Batagelj-Zaversnik peeling + LCPS), which shares no code with the
//     parallel path. The call still succeeds.
//   - A cancelled ctx — or an exceeded Options.Deadline, which wraps ctx
//     with a timeout — aborts the build at the next level/chunk boundary
//     and returns the context's error. Cancellation is a caller
//     decision, so it is never "rescued" by the fallback.
//   - Options.SelfVerify runs hierarchy validation on the result before
//     returning. If the parallel result fails validation, the serial
//     baseline rebuilds it (Fallback=true, Cause=the validation error)
//     and the replacement is validated in turn.
//
// The returned report is non-nil whenever err is nil. On the two
// unrecoverable verification paths — the serial fallback's own output
// fails validation, or the post-validation rebuild fails validation
// again — the error wraps ErrVerification and the report is returned
// partially populated alongside it, so callers can still see which
// phases ran and what the original failure cause was.
func BuildCtx(ctx context.Context, g *Graph, opt Options) (*HCD, []int32, *BuildReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}
	defer obs.StartSpan("build").End()
	start := time.Now()
	rep := &BuildReport{Threads: par.Threads(opt.Threads)}

	h, core, err := buildParallel(ctx, g, opt, rep)
	if err != nil {
		// Cancellation and deadline expiry propagate: the caller asked the
		// build to stop, so a serial fallback would be wrong twice over
		// (slower, and against the caller's wishes).
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, nil, ctxErr
		}
		rep.Fallback = true
		rep.Cause = err
		_ = rep.runPhase("fallback", func() error {
			core = coredecomp.Serial(g)
			h = lcps.Build(g, core)
			return nil
		})
	}
	if opt.SelfVerify {
		if verr := rep.runPhase("verify", func() error { return validate(h, g, core) }); verr != nil {
			if rep.Fallback {
				// The serial baseline itself produced an invalid hierarchy:
				// nothing further to fall back to.
				rep.Elapsed = time.Since(start)
				return nil, nil, rep, fmt.Errorf("%w: serial fallback output invalid: %v", ErrVerification, verr)
			}
			rep.Fallback = true
			rep.Cause = verr
			_ = rep.runPhase("fallback", func() error {
				core = coredecomp.Serial(g)
				h = lcps.Build(g, core)
				return nil
			})
			if verr := rep.runPhase("verify", func() error { return validate(h, g, core) }); verr != nil {
				rep.Elapsed = time.Since(start)
				return nil, nil, rep, fmt.Errorf("%w: rebuilt hierarchy invalid: %v", ErrVerification, verr)
			}
		}
		rep.Verified = true
	}
	rep.Elapsed = time.Since(start)
	return h, core, rep, nil
}

// buildParallel runs the parallel pipeline (PeelCtx with the selected
// kernel, PHCDCtx) under ctx as instrumented phases on rep, returning
// the first contained failure.
func buildParallel(ctx context.Context, g *Graph, opt Options, rep *BuildReport) (*HCD, []int32, error) {
	var core []int32
	err := rep.runPhase("peel", func() error {
		var err error
		core, err = coredecomp.PeelCtx(ctx, g, opt.Threads, opt.Kernel)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var h *HCD
	err = rep.runPhase("phcd", func() error {
		var err error
		h, err = core2.PHCDCtx(ctx, g, core, nil, opt.Threads)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return h, core, nil
}

// BuildAndIndexCtx is BuildAndIndex with the same containment contract as
// BuildCtx: on parallel failure the hierarchy comes from the serial
// baseline and the searcher is built serially (threads=1) on top of it.
// The error-path report contract matches BuildCtx's.
func BuildAndIndexCtx(ctx context.Context, g *Graph, opt Options) (*HCD, []int32, *Searcher, *BuildReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}
	defer obs.StartSpan("build.index").End()
	start := time.Now()
	rep := &BuildReport{Threads: par.Threads(opt.Threads)}

	h, core, s, err := buildAndIndexParallel(ctx, g, opt, rep)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, nil, nil, ctxErr
		}
		rep.Fallback = true
		rep.Cause = err
		_ = rep.runPhase("fallback", func() error {
			core = coredecomp.Serial(g)
			h = lcps.Build(g, core)
			s = &Searcher{ix: search.NewIndex(g, core, h, 1), h: h}
			return nil
		})
	}
	if opt.SelfVerify {
		if verr := rep.runPhase("verify", func() error { return validate(h, g, core) }); verr != nil {
			if rep.Fallback {
				rep.Elapsed = time.Since(start)
				return nil, nil, nil, rep, fmt.Errorf("%w: serial fallback output invalid: %v", ErrVerification, verr)
			}
			rep.Fallback = true
			rep.Cause = verr
			_ = rep.runPhase("fallback", func() error {
				core = coredecomp.Serial(g)
				h = lcps.Build(g, core)
				s = &Searcher{ix: search.NewIndex(g, core, h, 1), h: h}
				return nil
			})
			if verr := rep.runPhase("verify", func() error { return validate(h, g, core) }); verr != nil {
				rep.Elapsed = time.Since(start)
				return nil, nil, nil, rep, fmt.Errorf("%w: rebuilt hierarchy invalid: %v", ErrVerification, verr)
			}
		}
		rep.Verified = true
	}
	rep.Elapsed = time.Since(start)
	return h, core, s, rep, nil
}

// buildAndIndexParallel runs the shared-layout pipeline under ctx as
// instrumented phases on rep, returning the first contained failure.
func buildAndIndexParallel(ctx context.Context, g *Graph, opt Options, rep *BuildReport) (*HCD, []int32, *Searcher, error) {
	var core []int32
	err := rep.runPhase("peel", func() error {
		var err error
		core, err = coredecomp.PeelCtx(ctx, g, opt.Threads, opt.Kernel)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var lay *shellidx.Layout
	err = rep.runPhase("rank+layout", func() error {
		r := coredecomp.RankVertices(core, opt.Threads)
		var err error
		lay, err = shellidx.BuildCtx(ctx, g, core, r, opt.Threads)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var h *HCD
	err = rep.runPhase("phcd", func() error {
		var err error
		h, err = core2.PHCDCtx(ctx, g, core, lay, opt.Threads)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	var s *Searcher
	err = rep.runPhase("index", func() error {
		ix, err := search.NewIndexCtx(ctx, g, core, h, lay, opt.Threads)
		if err != nil {
			return err
		}
		s = &Searcher{ix: ix, h: h}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return h, core, s, nil
}

// BestCtx is Searcher.Best with failure containment, cooperative
// cancellation, and a per-phase report: a worker panic inside the search
// kernels surfaces as an error (typically a *par.PanicError) instead of
// crashing, a cancelled ctx aborts the kernels at their internal chunk
// boundaries, and the returned SearchReport (non-nil whenever err is
// nil) breaks the query down into its primary-value and scoring phases.
func (s *Searcher) BestCtx(ctx context.Context, m Metric, opt Options) (SearchResult, *SearchReport, error) {
	return s.ix.SearchReportCtx(ctx, m, opt.Threads)
}

// BestConstrainedCtx is BestConstrained with the same containment and
// cancellation contract as BestCtx — the entry point a resident query
// server plumbs per-request deadlines into.
func (s *Searcher) BestConstrainedCtx(ctx context.Context, m Metric, minSize, maxSize int64, opt Options) (SearchResult, error) {
	return s.ix.SearchConstrainedCtx(ctx, m, minSize, maxSize, opt.Threads)
}

// BestKCtx is BestK with failure containment and cooperative
// cancellation: a Type B metric returns ErrNotTypeA instead of panicking,
// a worker panic in the charging passes surfaces as an error, and a
// cancelled ctx aborts the passes at their chunk boundaries.
func (s *Searcher) BestKCtx(ctx context.Context, m Metric, opt Options) (k int32, score float64, all []float64, err error) {
	return s.ix.BestKSetCtx(ctx, m, opt.Threads)
}

// Summary renders the report as one compact human-readable line —
// how the build ran (parallel or fallback), whether it verified, and
// where the time went — for operator logs (hcdserve rebuild reports,
// hcdtool stderr).
func (rep *BuildReport) Summary() string {
	if rep == nil {
		return "no report"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "threads=%d elapsed=%v", rep.Threads, rep.Elapsed.Round(time.Millisecond))
	if rep.Fallback {
		fmt.Fprintf(&sb, " fallback(cause: %v)", rep.Cause)
	}
	if rep.Verified {
		sb.WriteString(" verified")
	}
	for _, p := range rep.Phases {
		fmt.Fprintf(&sb, " %s=%v", p.Name, p.Duration.Round(time.Millisecond))
	}
	return sb.String()
}
