package bench

import (
	"bytes"
	"strings"
	"testing"
)

func tiny() Config {
	return Config{Scale: 1, Reps: 1, Sweep: []int{1, 2}, Datasets: []string{"AS", "H"}}
}

func TestRunAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	for _, name := range Names() {
		var buf bytes.Buffer
		cfg := tiny()
		cfg.Out = &buf
		if err := Run(name, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := buf.String()
		if !strings.Contains(out, "AS") || !strings.Contains(out, "H") {
			t.Errorf("%s: output missing dataset rows:\n%s", name, out)
		}
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s: output contains NaN/Inf:\n%s", name, out)
		}
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if err := Run("table99", tiny()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 1 || c.Reps != 3 || c.Threads < 1 || len(c.Sweep) == 0 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.Sweep[0] != 1 {
		t.Errorf("sweep should start at 1: %v", c.Sweep)
	}
}

func TestDatasetFilter(t *testing.T) {
	c := Config{Datasets: []string{"LJ"}}.withDefaults()
	s := c.suite()
	if len(s) != 1 || s[0].Abbrev != "LJ" {
		t.Errorf("filter broken: %v", s)
	}
	c2 := Config{}.withDefaults()
	if len(c2.suite()) != 10 {
		t.Errorf("unfiltered suite should have 10 datasets")
	}
}
