package faultinject

import (
	"strings"
	"testing"

	"hcd/internal/obs"
)

// TestEnableRegistersSiteCounters checks every armed site gets eval and
// fired counters, so a mis-spelled site — whose trigger point is never
// evaluated — is visible on /metrics as armed-but-zero instead of
// failing silently.
func TestEnableRegistersSiteCounters(t *testing.T) {
	defer Disable()
	if err := Enable("obs.test.good:delay:1:1ns,obs.test.misspelled:panic:1"); err != nil {
		t.Fatal(err)
	}
	evals := obs.NewCounter(obs.Name("hcd_fault_evals_total", "site", "obs.test.good"), "")
	fired := obs.NewCounter(obs.Name("hcd_fault_fired_total", "site", "obs.test.good"), "")
	missed := obs.NewCounter(obs.Name("hcd_fault_evals_total", "site", "obs.test.misspelled"), "")
	e0, f0, m0 := evals.Value(), fired.Value(), missed.Value()

	Maybe("obs.test.good") // hit 1: fires the delay rule
	Maybe("obs.test.good") // hit 2: evaluated, does not fire

	if got := evals.Value() - e0; got != 2 {
		t.Errorf("eval counter delta = %d, want 2", got)
	}
	if got := fired.Value() - f0; got != 1 {
		t.Errorf("fired counter delta = %d, want 1", got)
	}
	if got := missed.Value() - m0; got != 0 {
		t.Errorf("mis-spelled site evals delta = %d, want 0", got)
	}

	// Both sites appear in the exposition, zero or not.
	var sb strings.Builder
	if err := obs.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`hcd_fault_evals_total{site="obs.test.good"}`,
		`hcd_fault_evals_total{site="obs.test.misspelled"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
