package coredecomp

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"hcd/internal/faultinject"
	"hcd/internal/gen"
	"hcd/internal/graph"
	"hcd/internal/par"
)

// kernelThreads is the thread sweep every equivalence test runs: the
// acceptance sweep of the kernel-selection experiment.
var kernelThreads = []int{1, 2, 4, 8}

func TestParseKernel(t *testing.T) {
	if k, err := ParseKernel(""); err != nil || k != DefaultKernel {
		t.Errorf(`ParseKernel("") = (%q, %v), want the default`, k, err)
	}
	if want := []Kernel{KernelLevelSync, KernelBuffered}; !reflect.DeepEqual(Kernels(), want) {
		t.Errorf("Kernels() = %v, want %v", Kernels(), want)
	}
	for _, k := range Kernels() {
		got, err := ParseKernel(string(k))
		if err != nil || got != k {
			t.Errorf("ParseKernel(%q) = (%q, %v)", k, got, err)
		}
	}
	if _, err := ParseKernel("bogus"); err == nil {
		t.Error("ParseKernel accepted an unknown kernel")
	}
	if _, err := PeelCtx(context.Background(), pathGraph(3), 1, Kernel("bogus")); err == nil {
		t.Error("PeelCtx accepted an unknown kernel")
	}
}

// TestKernelsMatchSerialOrder checks the selection contract on a fixed
// graph zoo: every kernel × every thread count produces a core array
// byte-identical to SerialOrder's. One subtest per kernel, so a single
// kernel can be selected with -run.
func TestKernelsMatchSerialOrder(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(500, 2500, 1),
		gen.BarabasiAlbert(400, 4, 2),
		gen.RMAT(9, 3000, 3),
		gen.Onion(5, 20, 2, 3, 2, 4),
		pathGraph(10),
		clique(8),
		graph.MustFromEdges(4, nil),
		graph.MustFromEdges(0, nil),
	}
	for _, k := range Kernels() {
		k := k
		t.Run(string(k), func(t *testing.T) {
			for i, g := range graphs {
				want, _ := SerialOrder(g)
				for _, threads := range kernelThreads {
					got, err := PeelCtx(context.Background(), g, threads, k)
					if err != nil {
						t.Fatalf("graph %d threads %d: %v", i, threads, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("graph %d threads %d: %s coreness differs from SerialOrder", i, threads, k)
					}
				}
			}
		})
	}
}

// TestKernelsMatchSerialOrderMultiWorker re-checks byte-identity with
// the adaptive fan-out forced wide: peelFanoutGrain drops to 8 so the
// concurrent peel paths (locked decrements, buffer flushes) run even on
// the small graph zoo, and GOMAXPROCS is raised so peelWorkers'
// hardware cap doesn't route the sub-rounds scalar on single-CPU
// machines. This is what gives the -race CI leg coverage of the
// multi-worker code paths.
func TestKernelsMatchSerialOrderMultiWorker(t *testing.T) {
	oldGrain := peelFanoutGrain
	peelFanoutGrain = 8
	oldProcs := runtime.GOMAXPROCS(4)
	defer func() {
		peelFanoutGrain = oldGrain
		runtime.GOMAXPROCS(oldProcs)
	}()
	graphs := []*graph.Graph{
		gen.ErdosRenyi(500, 2500, 11),
		gen.BarabasiAlbert(400, 4, 12),
		gen.RMAT(9, 3000, 13),
	}
	for i, g := range graphs {
		want, _ := SerialOrder(g)
		for _, k := range Kernels() {
			for _, threads := range kernelThreads {
				got, err := PeelCtx(context.Background(), g, threads, k)
				if err != nil {
					t.Fatalf("graph %d %s threads %d: %v", i, k, threads, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("graph %d %s threads %d: coreness differs from SerialOrder", i, k, threads)
				}
			}
		}
	}
}

// TestKernelsMatchSerialOrderProperty fuzzes the same contract over
// randomized multigraph edge lists (collapsed by MustFromEdges), all
// kernels × the full thread sweep per trial.
func TestKernelsMatchSerialOrderProperty(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint16) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 800)
		rng := rand.New(rand.NewSource(seed))
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		g := graph.MustFromEdges(n, edges)
		want, _ := SerialOrder(g)
		for _, k := range Kernels() {
			for _, threads := range kernelThreads {
				got, err := PeelCtx(context.Background(), g, threads, k)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Logf("kernel %s threads %d: err=%v", k, threads, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestKernelsMatchSerialOrderScale4 runs the equivalence contract on
// the scale-4 generators the kernel-selection experiment timed, so the
// promoted default is proven correct on the inputs it was promoted on. Skipped under -short (the race CI leg runs
// the small-graph tests above instead).
func TestKernelsMatchSerialOrderScale4(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-4 generators are seconds-sized; skipped under -short")
	}
	graphs := map[string]*graph.Graph{
		"rmat17":  gen.RMAT(17, 1<<20, 41),
		"rmat18":  gen.RMAT(18, 1<<21, 42),
		"onion17": gen.Onion(16, 2048, 2, 1, 4, 43),
	}
	for name, g := range graphs {
		want, _ := SerialOrder(g)
		for _, k := range Kernels() {
			for _, threads := range kernelThreads {
				got, err := PeelCtx(context.Background(), g, threads, k)
				if err != nil {
					t.Fatalf("%s %s threads %d: %v", name, k, threads, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s threads %d: coreness differs from SerialOrder", name, k, threads)
				}
			}
		}
	}
}

// kernelSites maps each kernel to its fault-injection sites, pinning
// the site names the docs and HCD_FAULTS rules reference.
var kernelSites = map[Kernel][]string{
	KernelLevelSync: {"coredecomp.collect", "coredecomp.peel"},
	KernelBuffered:  {"coredecomp.buffered.collect", "coredecomp.buffered.peel"},
}

// TestPeelCtxContainsInjectedPanics injects a panic into every site of
// every kernel and checks the shared containment contract: the fault
// surfaces as an error identifiable through errors.As, and no worker
// goroutine outlives the call. It runs at one thread too, the thread
// count of every benchmarked build: there the buffered kernel runs only
// its one-worker collect and sub-round bodies, and each must still
// reach its site.
func TestPeelCtxContainsInjectedPanics(t *testing.T) {
	g := gen.ErdosRenyi(400, 1600, 7)
	for _, threads := range []int{1, 4} {
		checkPeelContainment(t, g, threads)
	}
}

// TestPeelCtxContainsInjectedPanicsMultiWorker re-runs the containment
// contract with the fan-out forced wide: peelFanoutGrain drops to 1 and
// GOMAXPROCS rises to 4, so every round runs several workers and the
// concurrent sub-round bodies, not the one-worker ones, reach the sites.
func TestPeelCtxContainsInjectedPanicsMultiWorker(t *testing.T) {
	oldGrain := peelFanoutGrain
	peelFanoutGrain = 1
	oldProcs := runtime.GOMAXPROCS(4)
	defer func() {
		peelFanoutGrain = oldGrain
		runtime.GOMAXPROCS(oldProcs)
	}()
	checkPeelContainment(t, gen.ErdosRenyi(400, 1600, 7), 4)
}

// checkPeelContainment arms a panic at each site of each kernel in turn,
// peels g at the given thread count, and checks the fault comes back as
// a contained error, no goroutine leaks, and the disarmed kernel then
// succeeds.
func checkPeelContainment(t *testing.T, g *graph.Graph, threads int) {
	t.Helper()
	defer faultinject.Disable()
	for k, sites := range kernelSites {
		for _, site := range sites {
			if err := faultinject.Enable(site + ":panic:1"); err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			core, err := PeelCtx(context.Background(), g, threads, k)
			if core != nil || err == nil {
				t.Fatalf("threads %d %s/%s: PeelCtx = (%v, %v), want (nil, error)", threads, k, site, core, err)
			}
			var f *faultinject.Fault
			if !errors.As(err, &f) || f.Site != site {
				t.Errorf("threads %d %s/%s: error %v does not unwrap to the injected fault", threads, k, site, err)
			}
			var pe *par.PanicError
			if !errors.As(err, &pe) {
				t.Errorf("threads %d %s/%s: error %v is not a contained worker panic", threads, k, site, err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > before {
				t.Errorf("threads %d %s/%s: goroutine leak: %d before, %d after", threads, k, site, before, got)
			}
			faultinject.Disable()
		}
		// Disarmed, the same kernel must succeed again.
		core, err := PeelCtx(context.Background(), g, threads, k)
		if err != nil || core == nil {
			t.Fatalf("threads %d %s: disarmed rerun failed: %v", threads, k, err)
		}
	}
}

// TestPeelCtxCancellation cancels each kernel mid-run (a delay rule
// holds a round open deterministically) and checks the context error
// propagates instead of the run completing.
func TestPeelCtxCancellation(t *testing.T) {
	defer faultinject.Disable()
	g := gen.ErdosRenyi(400, 1600, 8)
	for k, sites := range kernelSites {
		if err := faultinject.Enable(sites[0] + ":delay:1:300ms"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		core, err := PeelCtx(ctx, g, 4, k)
		if core != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: PeelCtx = (%v, %v), want (nil, context.Canceled)", k, core, err)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("%s: cancelled peel still took %v", k, el)
		}
		cancel()
		faultinject.Disable()
	}
}

// TestRepanicPreservesCauseChain pins the PR 2 containment contract on
// the panicking wrappers (Parallel, Peel): the re-panicked value must
// stay a *par.PanicError whose cause chain still reaches the injected
// *faultinject.Fault through errors.Is/As.
func TestRepanicPreservesCauseChain(t *testing.T) {
	defer faultinject.Disable()
	g := gen.ErdosRenyi(200, 800, 9)
	cases := []struct {
		site string
		call func()
	}{
		{"coredecomp.peel", func() { Parallel(g, 4) }},
		{"coredecomp.buffered.peel", func() { Peel(g, 4, KernelBuffered) }},
	}
	for _, tc := range cases {
		if err := faultinject.Enable(tc.site + ":panic:1"); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: wrapper did not re-panic", tc.site)
				}
				pe, ok := r.(*par.PanicError)
				if !ok {
					t.Fatalf("%s: recovered %T, want *par.PanicError", tc.site, r)
				}
				var f *faultinject.Fault
				if !errors.As(pe, &f) || f.Site != tc.site {
					t.Errorf("%s: recovered panic does not unwrap to the injected fault: %v", tc.site, pe)
				}
			}()
			tc.call()
		}()
		faultinject.Disable()
	}
}

func BenchmarkBufferedCoreDecomp(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Peel(g, 0, KernelBuffered)
	}
}
