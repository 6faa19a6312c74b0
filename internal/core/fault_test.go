package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"hcd/internal/coredecomp"
	"hcd/internal/faultinject"
	"hcd/internal/gen"
	"hcd/internal/par"
)

// TestPHCDCtxContainsInjectedPanics injects a panic into each of PHCD's
// four per-level steps in turn, and into the one-thread path's per-level
// site, and checks the containment contract: the fault comes back as an
// error (never a process crash), it is identifiable through errors.As,
// and no worker goroutine outlives the call.
func TestPHCDCtxContainsInjectedPanics(t *testing.T) {
	defer faultinject.Disable()
	g := gen.ErdosRenyi(400, 1600, 7)
	core := coredecomp.Serial(g)
	cases := []struct {
		site    string
		threads int
	}{
		{"phcd.step1", 4}, {"phcd.step2", 4}, {"phcd.step3", 4}, {"phcd.step4", 4},
		{"phcd.serial", 1},
	}
	for _, c := range cases {
		site := c.site
		if err := faultinject.Enable(site + ":panic:1"); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		h, err := PHCDCtx(context.Background(), g, core, nil, c.threads)
		if h != nil || err == nil {
			t.Fatalf("%s: PHCDCtx = (%v, %v), want (nil, error)", site, h, err)
		}
		var f *faultinject.Fault
		if !errors.As(err, &f) || f.Site != site {
			t.Errorf("%s: error %v does not unwrap to the injected fault", site, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: goroutine leak: %d before, %d after", site, before, got)
		}
		if hits := faultinject.Hits(site); hits < 1 {
			t.Errorf("%s: fault site never evaluated", site)
		}
	}
	faultinject.Disable()
	// With the injector disarmed, the same build must succeed again.
	for _, threads := range []int{1, 4} {
		h, err := PHCDCtx(context.Background(), g, core, nil, threads)
		if err != nil || h == nil {
			t.Fatalf("threads %d: disarmed rebuild failed: %v", threads, err)
		}
	}
}

// TestPHCDCtxCancellation cancels a build mid-flight (a delay rule makes
// the window deterministic) and checks the context error propagates.
func TestPHCDCtxCancellation(t *testing.T) {
	defer faultinject.Disable()
	g := gen.ErdosRenyi(400, 1600, 8)
	core := coredecomp.Serial(g)
	if err := faultinject.Enable("phcd.step1:delay:1:300ms"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	h, err := PHCDCtx(ctx, g, core, nil, 4)
	if h != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("PHCDCtx = (%v, %v), want (nil, context.Canceled)", h, err)
	}
	// Cancellation must not wait out every level's injected work.
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("cancelled build still took %v", el)
	}
}

// TestPHCDCtxErrorsArePanicErrors checks an injected fault surfaces as a
// *par.PanicError (the containment wrapper), not as a bare panic value.
func TestPHCDCtxErrorsArePanicErrors(t *testing.T) {
	defer faultinject.Disable()
	g := gen.ErdosRenyi(200, 700, 9)
	core := coredecomp.Serial(g)
	if err := faultinject.Enable("phcd.step2:panic:1"); err != nil {
		t.Fatal(err)
	}
	h, err := PHCDCtx(context.Background(), g, core, nil, 4)
	var pe *par.PanicError
	if h != nil || !errors.As(err, &pe) {
		t.Fatalf("PHCDCtx = (%v, %v), want a contained *par.PanicError", h, err)
	}
}

// TestPHCDCtxSerialPathCancellation checks the threads=1 inline path still
// honours cancellation (phcdSerial polls ctx between levels).
func TestPHCDCtxSerialPathCancellation(t *testing.T) {
	g := gen.ErdosRenyi(300, 1200, 10)
	core := coredecomp.Serial(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, err := PHCDCtx(ctx, g, core, nil, 1)
	if h != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("PHCDCtx threads=1 = (%v, %v), want (nil, context.Canceled)", h, err)
	}
}
