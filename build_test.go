package hcd_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hcd"
	"hcd/internal/faultinject"
	"hcd/internal/gen"
	"hcd/internal/hierarchy"
)

func TestBuildCtxFastPath(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 3)
	h, core, rep, err := hcd.BuildCtx(context.Background(), g, hcd.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallback || rep.Cause != nil {
		t.Errorf("fast path reported fallback: %+v", rep)
	}
	if rep.Threads != 4 || rep.Elapsed <= 0 {
		t.Errorf("report = %+v, want Threads=4 and a positive Elapsed", rep)
	}
	if err := hierarchy.Validate(h, g, core); err != nil {
		t.Errorf("fast-path hierarchy invalid: %v", err)
	}
	// Nil ctx is allowed and means background.
	if _, _, _, err := hcd.BuildCtx(nil, g, hcd.Options{Threads: 2}); err != nil {
		t.Errorf("nil ctx: %v", err)
	}
}

// TestBuildCtxFallsBackOnInjectedPanic is the tentpole acceptance check:
// with a panic injected into any PHCD step or the peeling phases, BuildCtx
// must still succeed — via the serial baseline — report the recovered
// cause, produce a Validate-clean hierarchy, and leak no goroutines. At
// one thread PHCD runs its serial path, whose only site is phcd.serial,
// and the peel runs only the buffered kernel's one-worker bodies.
func TestBuildCtxFallsBackOnInjectedPanic(t *testing.T) {
	defer faultinject.Disable()
	g := gen.ErdosRenyi(500, 2000, 4)
	want, wantCore := hcd.BuildHCDSerial(g, hcd.CoreDecompositionSerial(g)), hcd.CoreDecompositionSerial(g)
	// The peeling sites belong to the default kernel (the buffered one,
	// hcd.DefaultPeelKernel) — the build pipeline only runs that kernel.
	cases := []struct {
		threads int
		sites   []string
	}{
		{4, []string{
			"coredecomp.buffered.collect", "coredecomp.buffered.peel",
			"phcd.step1", "phcd.step2", "phcd.step3", "phcd.step4",
		}},
		{1, []string{"coredecomp.buffered.collect", "coredecomp.buffered.peel", "phcd.serial"}},
	}
	for _, c := range cases {
		for _, site := range c.sites {
			if err := faultinject.Enable(site + ":panic:1"); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			h, core, rep, err := hcd.BuildCtx(context.Background(), g, hcd.Options{Threads: c.threads})
			if err != nil {
				t.Fatalf("threads %d %s: BuildCtx failed outright: %v", c.threads, site, err)
			}
			if !rep.Fallback || rep.Cause == nil {
				t.Fatalf("threads %d %s: fallback not reported: %+v", c.threads, site, rep)
			}
			var f *faultinject.Fault
			if !errors.As(rep.Cause, &f) || f.Site != site {
				t.Errorf("threads %d %s: cause %v does not unwrap to the injected fault", c.threads, site, rep.Cause)
			}
			if err := hierarchy.Validate(h, g, core); err != nil {
				t.Errorf("threads %d %s: fallback hierarchy invalid: %v", c.threads, site, err)
			}
			if !reflect.DeepEqual(core, wantCore) {
				t.Errorf("threads %d %s: fallback coreness differs from serial baseline", c.threads, site)
			}
			if h.NumNodes() != want.NumNodes() {
				t.Errorf("threads %d %s: fallback hierarchy has %d nodes, serial baseline %d",
					c.threads, site, h.NumNodes(), want.NumNodes())
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("threads %d %s: goroutine leak: %d before, %d after", c.threads, site, before, got)
			}
			faultinject.Disable()
		}
	}
}

// TestBuildCtxCancellationIsNotRescued checks that caller-initiated
// cancellation propagates as an error instead of triggering the serial
// fallback (which would override the caller's decision to stop).
func TestBuildCtxCancellationIsNotRescued(t *testing.T) {
	defer faultinject.Disable()
	g := gen.ErdosRenyi(500, 2000, 5)
	// A delay rule pins step 1 so the cancel lands mid-build
	// deterministically, without depending on graph size or machine speed.
	if err := faultinject.Enable("phcd.step1:delay:1:300ms"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	h, _, rep, err := hcd.BuildCtx(ctx, g, hcd.Options{Threads: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildCtx = (%v, %+v, %v), want context.Canceled", h, rep, err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Errorf("cancelled build still took %v", el)
	}
}

func TestBuildCtxDeadline(t *testing.T) {
	defer faultinject.Disable()
	g := gen.ErdosRenyi(500, 2000, 6)
	// Without a delay the build finishes in well under a millisecond, so
	// pin the first PHCD step long enough to trip a short deadline.
	if err := faultinject.Enable("phcd.step1:delay:1:300ms"); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := hcd.BuildCtx(context.Background(), g,
		hcd.Options{Threads: 4, Deadline: 20 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	faultinject.Disable()
	// A deadline that is not hit leaves the build untouched.
	h, core, rep, err := hcd.BuildCtx(context.Background(), g,
		hcd.Options{Threads: 4, Deadline: time.Minute})
	if err != nil || rep.Fallback {
		t.Fatalf("generous deadline: err=%v rep=%+v", err, rep)
	}
	if err := hierarchy.Validate(h, g, core); err != nil {
		t.Error(err)
	}
}

func TestBuildCtxSelfVerify(t *testing.T) {
	g := gen.Onion(6, 12, 2, 2, 3, 7)
	h, core, rep, err := hcd.BuildCtx(context.Background(), g,
		hcd.Options{Threads: 4, SelfVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Errorf("SelfVerify set but report.Verified = false: %+v", rep)
	}
	if err := hierarchy.Validate(h, g, core); err != nil {
		t.Error(err)
	}
	// SelfVerify composes with the fallback path: inject a fault, and the
	// serial replacement must itself be verified.
	defer faultinject.Disable()
	if err := faultinject.Enable("phcd.step3:panic:1"); err != nil {
		t.Fatal(err)
	}
	_, _, rep2, err := hcd.BuildCtx(context.Background(), g,
		hcd.Options{Threads: 4, SelfVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Fallback || !rep2.Verified {
		t.Errorf("fallback+verify report = %+v, want Fallback and Verified", rep2)
	}
}

func TestBuildAndIndexCtx(t *testing.T) {
	defer faultinject.Disable()
	g := gen.BarabasiAlbert(400, 4, 8)
	ctx := context.Background()
	h, core, s, rep, err := hcd.BuildAndIndexCtx(ctx, g, hcd.Options{Threads: 4, SelfVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallback || !rep.Verified {
		t.Errorf("report = %+v", rep)
	}
	if err := hierarchy.Validate(h, g, core); err != nil {
		t.Fatal(err)
	}
	r, srep, err := s.BestCtx(ctx, hcd.AverageDegree(), hcd.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if srep == nil || len(srep.Phases) == 0 {
		t.Errorf("BestCtx report = %+v, want phases", srep)
	}
	// The searcher from the fallback path answers the same query.
	if err := faultinject.Enable("phcd.step2:panic:1"); err != nil {
		t.Fatal(err)
	}
	_, _, s2, rep2, err := hcd.BuildAndIndexCtx(ctx, g, hcd.Options{Threads: 4})
	faultinject.Disable()
	if err != nil || !rep2.Fallback {
		t.Fatalf("fallback BuildAndIndexCtx: err=%v rep=%+v", err, rep2)
	}
	r2, _, err := s2.BestCtx(ctx, hcd.AverageDegree(), hcd.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.K != r2.K || r.Score != r2.Score {
		t.Errorf("fallback searcher answer (k=%d, %v) != parallel answer (k=%d, %v)",
			r2.K, r2.Score, r.K, r.Score)
	}
}

// TestBestCtxContainsKernelPanic checks the public search entry point
// surfaces injected kernel panics as errors.
func TestBestCtxContainsKernelPanic(t *testing.T) {
	defer faultinject.Disable()
	g := gen.BarabasiAlbert(400, 4, 9)
	_, _, s, _, err := hcd.BuildAndIndexCtx(context.Background(), g, hcd.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Enable("search.typea:panic:1"); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.BestCtx(context.Background(), hcd.AverageDegree(), hcd.Options{Threads: 4})
	var f *faultinject.Fault
	if err == nil || !errors.As(err, &f) {
		t.Errorf("BestCtx err = %v, want the injected fault", err)
	}
}

// TestBuildCtxCancelsLargeBuildEarly is the acceptance criterion's timing
// check without fault injection: cancelling a build of a non-trivial graph
// aborts well before the build would have completed at that thread count.
func TestBuildCtxCancelsLargeBuildEarly(t *testing.T) {
	g := gen.RMAT(16, 1<<19, 10)
	// Time one full build for scale.
	full := time.Now()
	if _, _, _, err := hcd.BuildCtx(context.Background(), g, hcd.Options{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(full)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(fullDur / 20)
		cancel()
	}()
	start := time.Now()
	_, _, _, err := hcd.BuildCtx(ctx, g, hcd.Options{Threads: 2})
	el := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if el > fullDur/2+50*time.Millisecond {
		t.Errorf("cancelled build took %v of a %v full build — not an early abort", el, fullDur)
	}
}

// phaseNames extracts the Name of every reported phase in order.
func phaseNames(phases []hcd.PhaseStat) []string {
	out := make([]string, len(phases))
	for i, p := range phases {
		out[i] = p.Name
	}
	return out
}

// TestBuildReportPhases checks the instrumented BuildCtx breakdown: the
// expected phases appear in order and their durations account for
// (almost) all of Elapsed. The 70% floor is deliberately loose for noisy
// CI machines; the trace-level ≥95% criterion is carried by the "build"
// root span, which wraps the whole call by construction.
func TestBuildReportPhases(t *testing.T) {
	g := gen.RMAT(14, 1<<17, 11)
	_, _, rep, err := hcd.BuildCtx(context.Background(), g,
		hcd.Options{Threads: 4, SelfVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"peel", "phcd", "verify"}
	if got := phaseNames(rep.Phases); !reflect.DeepEqual(got, want) {
		t.Fatalf("phases = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, p := range rep.Phases {
		if p.Duration <= 0 {
			t.Errorf("phase %s has non-positive duration %v", p.Name, p.Duration)
		}
		sum += p.Duration
	}
	if sum > rep.Elapsed {
		t.Errorf("phase sum %v exceeds Elapsed %v", sum, rep.Elapsed)
	}
	if float64(sum) < 0.7*float64(rep.Elapsed) {
		t.Errorf("phase sum %v covers under 70%% of Elapsed %v", sum, rep.Elapsed)
	}
}

// TestBuildAndIndexReportPhases checks the shared-layout pipeline's
// breakdown, including the worker statistics the par hooks feed in (the
// peel and phcd phases always run parallel primitives at Threads=4).
func TestBuildAndIndexReportPhases(t *testing.T) {
	g := gen.RMAT(14, 1<<17, 12)
	_, _, _, rep, err := hcd.BuildAndIndexCtx(context.Background(), g, hcd.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"peel", "rank+layout", "phcd", "index"}
	if got := phaseNames(rep.Phases); !reflect.DeepEqual(got, want) {
		t.Fatalf("phases = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, p := range rep.Phases {
		sum += p.Duration
	}
	if float64(sum) < 0.7*float64(rep.Elapsed) || sum > rep.Elapsed {
		t.Errorf("phase sum %v vs Elapsed %v out of bounds", sum, rep.Elapsed)
	}
	for _, p := range rep.Phases {
		if p.Name != "peel" && p.Name != "phcd" {
			continue
		}
		if p.Stints <= 0 || p.Busy <= 0 {
			t.Fatalf("no worker stats for %s: %+v", p.Name, p)
		}
		if p.MaxWorkers < 1 || p.MaxWorkers > p.Stints {
			t.Errorf("%s max workers = %d, want in [1, %d]", p.Name, p.MaxWorkers, p.Stints)
		}
		if p.Skew < 1 {
			t.Errorf("%s skew = %f, want >= 1", p.Name, p.Skew)
		}
	}
}

// TestSearchReportPhases checks BestCtx's report: both phases present,
// positive, and summing to ≈ Elapsed.
func TestSearchReportPhases(t *testing.T) {
	g := gen.RMAT(13, 1<<16, 13)
	_, _, s, _, err := hcd.BuildAndIndexCtx(context.Background(), g, hcd.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []hcd.Metric{hcd.AverageDegree(), hcd.ClusteringCoefficient()} {
		_, rep, err := s.BestCtx(context.Background(), m, hcd.Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"search.primary", "search.score"}
		if got := phaseNames(rep.Phases); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: phases = %v, want %v", m.Name(), got, want)
		}
		var sum time.Duration
		for _, p := range rep.Phases {
			if p.Duration <= 0 {
				t.Errorf("%s: phase %s duration %v", m.Name(), p.Name, p.Duration)
			}
			sum += p.Duration
		}
		if sum > rep.Elapsed {
			t.Errorf("%s: phase sum %v exceeds Elapsed %v", m.Name(), sum, rep.Elapsed)
		}
	}
}
