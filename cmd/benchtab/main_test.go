package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcd/internal/bench"
)

func TestRunSingleExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "table2", "-scale", "1", "-reps", "1", "-datasets", "AS"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "== table2 ==") || !strings.Contains(out.String(), "AS") {
		t.Errorf("output wrong:\n%s", out.String())
	}
}

func TestRunSweepFlag(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig4", "-scale", "1", "-reps", "1", "-sweep", "1,2", "-datasets", "AS"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "p=2") {
		t.Errorf("sweep column missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "table99"}, &out, &errb); code != 1 {
		t.Error("unknown experiment not rejected")
	}
	if code := run([]string{"-sweep", "0,x"}, &out, &errb); code != 2 {
		t.Error("bad sweep not rejected")
	}
	if code := run([]string{"-threads", "1,zero"}, &out, &errb); code != 2 {
		t.Error("bad thread list not rejected")
	}
	if code := run([]string{"-not-a-flag"}, &out, &errb); code != 2 {
		t.Error("bad flag not rejected")
	}
	if code := run([]string{"-compare", "a.json"}, &out, &errb); code != 2 {
		t.Error("-compare without a candidate journal not rejected")
	}
	if code := run([]string{"-compare", "missing-old.json", "missing-new.json"}, &out, &errb); code != 1 {
		t.Error("-compare with unreadable journals not rejected")
	}
}

// TestRunThreadSweep drives the phcd journal experiment through the CLI
// with a multi-entry -threads list — the paper-style sweep invocation.
func TestRunThreadSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	path := filepath.Join(t.TempDir(), "phcd.json")
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "phcd", "-scale", "1", "-reps", "1",
		"-threads", "1,2", "-json", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	rep, err := bench.ReadReport(path)
	if err != nil {
		t.Fatalf("journal unreadable: %v", err)
	}
	if len(rep.Threads) != 2 || rep.Threads[0] != 1 || rep.Threads[1] != 2 {
		t.Errorf("journal sweep = %v, want [1 2]", rep.Threads)
	}
	if !strings.Contains(out.String(), "serial frac") {
		t.Errorf("scaling table missing:\n%s", out.String())
	}
}

// writeJournal writes a minimal single-cell journal for compare tests.
func writeJournal(t *testing.T, path string, minNS int64) {
	t.Helper()
	rep := bench.Report{
		Experiment: "phcd",
		Manifest: bench.Manifest{Schema: bench.SchemaVersion, GoVersion: "go1.24",
			OS: "linux", Arch: "amd64", NumCPU: 8, GoMaxProcs: 8,
			Scale: 4, Suite: "phcd-full-v1"},
		Threads: []int{1},
		Reps:    3,
		Cells: []bench.Cell{{Dataset: "d", Kernel: "phcd", Threads: 1,
			SamplesNS: []int64{minNS}, MinNS: minNS, MedianNS: minNS}},
	}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestRunCompareAndGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	samePath := filepath.Join(dir, "same.json")
	slowPath := filepath.Join(dir, "slow.json")
	writeJournal(t, oldPath, 1_000_000)
	writeJournal(t, samePath, 1_000_000)
	writeJournal(t, slowPath, 1_500_000)

	// Self-compare: everything within noise, gate stays green.
	var out, errb bytes.Buffer
	if code := run([]string{"-compare", oldPath, samePath, "-gate"}, &out, &errb); code != 0 {
		t.Fatalf("self-compare exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "0 regressed") {
		t.Errorf("self-compare report wrong:\n%s", out.String())
	}

	// Confirmed regression: gate exits 3 and the markdown lands in -report.
	reportPath := filepath.Join(dir, "report.md")
	out.Reset()
	errb.Reset()
	code := run([]string{"-compare", oldPath, slowPath, "-report", reportPath, "-gate"}, &out, &errb)
	if code != 3 {
		t.Fatalf("gated regression exit %d, want 3: %s", code, errb.String())
	}
	md, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	if !strings.Contains(string(md), "**regressed**") {
		t.Errorf("report missing regression row:\n%s", md)
	}

	// Without -gate the same regression only reports, exit 0.
	out.Reset()
	if code := run([]string{"-compare", oldPath, slowPath}, &out, &errb); code != 0 {
		t.Errorf("ungated compare exit %d, want 0", code)
	}
}
