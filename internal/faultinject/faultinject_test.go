package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"phcd.step1",                // no mode/count
		"phcd.step1:panic",          // no count
		"phcd.step1:panic:0",        // hit counts are 1-based
		"phcd.step1:panic:x",        // non-numeric count
		"phcd.step1:panic:1:10ms",   // panic takes no duration
		"phcd.step1:delay:1",        // delay needs a duration
		"phcd.step1:delay:1:tomato", // unparsable duration
		"phcd.step1:explode:1",      // unknown mode
		":panic:1",                  // empty site
		"a:panic:1,a:panic:2",       // duplicate site
	}
	for _, spec := range bad {
		if err := Enable(spec); err == nil {
			Disable()
			t.Errorf("Enable(%q) accepted, want error", spec)
		}
	}
	if Enabled() {
		t.Error("injector armed after rejected specs")
	}
}

func TestPanicFiresOnExactlyTheNthHit(t *testing.T) {
	defer Disable()
	if err := Enable("site.x:panic:3"); err != nil {
		t.Fatal(err)
	}
	Maybe("site.x") // hit 1
	Maybe("site.x") // hit 2
	Maybe("other")  // unknown site: no counting, no fault
	func() {
		defer func() {
			r := recover()
			f, ok := r.(*Fault)
			if !ok {
				t.Fatalf("hit 3: recover() = %v, want *Fault", r)
			}
			if f.Site != "site.x" || f.Hit != 3 {
				t.Errorf("fault = %+v, want site.x hit 3", f)
			}
			if !strings.Contains(f.Error(), "site.x") {
				t.Errorf("Error() = %q, want the site name", f.Error())
			}
		}()
		Maybe("site.x") // hit 3: fires
	}()
	Maybe("site.x") // hit 4: past the trigger, must not fire again
	if got := Hits("site.x"); got != 4 {
		t.Errorf("Hits = %d, want 4", got)
	}
}

func TestDelayRule(t *testing.T) {
	defer Disable()
	if err := Enable("slow:delay:2:30ms"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	Maybe("slow") // hit 1: no delay
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Errorf("hit 1 took %v, want no delay", d)
	}
	start = time.Now()
	Maybe("slow") // hit 2: sleeps
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("hit 2 took %v, want >= 30ms", d)
	}
}

func TestDisableDropsRulesAndCounters(t *testing.T) {
	if err := Enable("site.y:panic:1"); err != nil {
		t.Fatal(err)
	}
	Disable()
	if Enabled() {
		t.Error("Enabled() after Disable")
	}
	Maybe("site.y") // must be a no-op, not a panic
	if got := Hits("site.y"); got != 0 {
		t.Errorf("Hits after Disable = %d, want 0", got)
	}
}

func TestEnableResetsCounters(t *testing.T) {
	defer Disable()
	if err := Enable("site.z:panic:100"); err != nil {
		t.Fatal(err)
	}
	Maybe("site.z")
	Maybe("site.z")
	if err := Enable("site.z:panic:100"); err != nil {
		t.Fatal(err)
	}
	if got := Hits("site.z"); got != 0 {
		t.Errorf("Hits after re-Enable = %d, want 0", got)
	}
}

func TestEnableFromEnv(t *testing.T) {
	defer Disable()
	t.Setenv("HCD_FAULTS", "")
	if err := EnableFromEnv(); err != nil {
		t.Errorf("empty env: %v", err)
	}
	if Enabled() {
		t.Error("armed with empty HCD_FAULTS")
	}
	t.Setenv("HCD_FAULTS", "env.site:panic:1")
	if err := EnableFromEnv(); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Error("not armed from HCD_FAULTS")
	}
	t.Setenv("HCD_FAULTS", "not a spec")
	if err := EnableFromEnv(); err == nil {
		t.Error("bad HCD_FAULTS accepted")
	}
}

// TestDisarmedMaybeIsConcurrencySafe drives Maybe from many goroutines
// while arming and disarming — exercised under -race in CI.
func TestDisarmedMaybeIsConcurrencySafe(t *testing.T) {
	defer Disable()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			Enable("race.site:delay:1000000:1ms")
			Disable()
		}
	}()
	for i := 0; i < 10000; i++ {
		Maybe("race.site")
	}
	<-done
}
