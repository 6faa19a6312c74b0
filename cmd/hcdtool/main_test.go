package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcd"
)

// writeTestGraph writes the two-K4-plus-bridge graph to a temp binary file.
func writeTestGraph(t *testing.T) string {
	t.Helper()
	g, err := hcd.NewGraph(9, []hcd.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 4, V: 5}, {U: 4, V: 6}, {U: 4, V: 7}, {U: 5, V: 6}, {U: 5, V: 7}, {U: 6, V: 7},
		{U: 3, V: 8}, {U: 8, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := g.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func runTool(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestRunStats(t *testing.T) {
	path := writeTestGraph(t)
	out, _, code := runTool(t, "-cmd", "stats", "-in", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "n=9 m=14") || !strings.Contains(out, "components=1") {
		t.Errorf("stats output wrong:\n%s", out)
	}
}

func TestRunDecompose(t *testing.T) {
	path := writeTestGraph(t)
	out, _, code := runTool(t, "-cmd", "decompose", "-in", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "kmax=3") || !strings.Contains(out, "shell    2: 1 vertices") {
		t.Errorf("decompose output wrong:\n%s", out)
	}
}

func TestRunBuildWithExports(t *testing.T) {
	path := writeTestGraph(t)
	dir := t.TempDir()
	dot := filepath.Join(dir, "h.dot")
	idx := filepath.Join(dir, "h.idx")
	out, _, code := runTool(t, "-cmd", "build", "-in", path, "-dot", dot, "-index", idx)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "nodes=3") {
		t.Errorf("build output wrong:\n%s", out)
	}
	for _, p := range []string{dot, idx} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("export %s missing or empty", p)
		}
	}
}

func TestRunSearchAndBestK(t *testing.T) {
	path := writeTestGraph(t)
	out, _, code := runTool(t, "-cmd", "search", "-in", path, "-metric", "internal-density", "-top", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "best k-core: k=3 score=1.000000") {
		t.Errorf("search output wrong:\n%s", out)
	}
	out, _, code = runTool(t, "-cmd", "bestk", "-in", path)
	if code != 0 || !strings.Contains(out, "best k for average-degree: k=2") {
		t.Errorf("bestk output wrong (exit %d):\n%s", code, out)
	}
}

func TestRunDensestCliqueKcoreTrussInfluence(t *testing.T) {
	path := writeTestGraph(t)
	out, _, code := runTool(t, "-cmd", "densest", "-in", path)
	if code != 0 || !strings.Contains(out, "avg-degree=3.1111") {
		t.Errorf("densest wrong (exit %d):\n%s", code, out)
	}
	out, _, code = runTool(t, "-cmd", "clique", "-in", path)
	if code != 0 || !strings.Contains(out, "size 4") {
		t.Errorf("clique wrong (exit %d):\n%s", code, out)
	}
	out, _, code = runTool(t, "-cmd", "kcore", "-in", path, "-v", "0", "-k", "3")
	if code != 0 || !strings.Contains(out, "has 4 vertices") {
		t.Errorf("kcore wrong (exit %d):\n%s", code, out)
	}
	out, _, code = runTool(t, "-cmd", "kcore", "-in", path, "-v", "8", "-k", "3")
	if code != 0 || !strings.Contains(out, "no 3-core") {
		t.Errorf("kcore-miss wrong (exit %d):\n%s", code, out)
	}
	out, _, code = runTool(t, "-cmd", "truss", "-in", path)
	if code != 0 || !strings.Contains(out, "max trussness=4") {
		t.Errorf("truss wrong (exit %d):\n%s", code, out)
	}
	out, _, code = runTool(t, "-cmd", "influence", "-in", path, "-k", "3", "-top", "2")
	if code != 0 || !strings.Contains(out, "#1 influence=") {
		t.Errorf("influence wrong (exit %d):\n%s", code, out)
	}
}

func TestRunTextFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runTool(t, "-cmd", "stats", "-in", path, "-format", "text")
	if code != 0 || !strings.Contains(out, "n=3 m=3") {
		t.Errorf("text format wrong (exit %d):\n%s", code, out)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t)
	if _, _, code := runTool(t); code != 2 {
		t.Error("missing -in not rejected")
	}
	if _, errOut, code := runTool(t, "-cmd", "nonsense", "-in", path); code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Error("unknown command not rejected")
	}
	if _, _, code := runTool(t, "-cmd", "stats", "-in", filepath.Join(t.TempDir(), "absent.bin")); code != 1 {
		t.Error("missing file not reported")
	}
	if _, _, code := runTool(t, "-cmd", "search", "-in", path, "-metric", "bogus"); code != 1 {
		t.Error("unknown metric not rejected")
	}
	if _, _, code := runTool(t, "-cmd", "kcore", "-in", path, "-v", "99"); code != 2 {
		t.Error("out-of-range vertex not rejected")
	}
	if _, _, code := runTool(t, "-bad-flag"); code != 2 {
		t.Error("bad flag not rejected")
	}
	if _, errOut, code := runTool(t, "-cmd", "stats", "-in", path, "-kernel", "hindex"); code != 2 || !strings.Contains(errOut, "unknown peeling kernel") {
		t.Error("-kernel hindex not rejected")
	}
}

// TestRunBestKRejectsTypeB checks that bestk reports a Type B metric as a
// usage error (exit 2, one line on stderr) instead of crashing, even on a
// graph too small for the search to matter.
func TestRunBestKRejectsTypeB(t *testing.T) {
	g, err := hcd.NewGraph(5, []hcd.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g5.bin")
	if err := g.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runTool(t, "-cmd", "bestk", "-in", path, "-metric", "clustering-coefficient")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "Type A metrics only") || strings.Contains(errOut, "goroutine") {
		t.Errorf("stderr should name the usage error without a stack:\n%s", errOut)
	}
	if strings.Contains(out, "best k for") {
		t.Errorf("no result expected on stdout:\n%s", out)
	}
	// A Type A metric on the same graph still answers.
	if out, _, code := runTool(t, "-cmd", "bestk", "-in", path, "-metric", "average-degree"); code != 0 || !strings.Contains(out, "best k for average-degree") {
		t.Errorf("Type A bestk wrong (exit %d):\n%s", code, out)
	}
}

// TestRunFaultsFallsBackAndVerifies drives the containment path end to
// end through the CLI: an injected PHCD panic degrades to the serial
// baseline (reported on stderr), the build still succeeds, and -verify
// validates the replacement.
func TestRunFaultsFallsBackAndVerifies(t *testing.T) {
	path := writeTestGraph(t)
	// -threads 4 forces the parallel path (where the fault sites live)
	// even on single-CPU machines.
	out, errOut, code := runTool(t, "-cmd", "build", "-in", path,
		"-threads", "4", "-faults", "phcd.step1:panic:1", "-verify")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "serial fallback") {
		t.Errorf("fallback not reported on stderr:\n%s", errOut)
	}
	if !strings.Contains(out, "built HCD") {
		t.Errorf("build output missing:\n%s", out)
	}
	// A bad spec is rejected up front.
	if _, _, code := runTool(t, "-cmd", "build", "-in", path, "-faults", "nonsense"); code != 1 {
		t.Error("bad -faults spec not rejected")
	}
}

// TestRunInterrupted checks a cancelled context maps to the conventional
// 128+SIGINT exit code.
func TestRunInterrupted(t *testing.T) {
	path := writeTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	code := run(ctx, []string{"-cmd", "build", "-in", path}, &out, &errb)
	if code != 130 {
		t.Errorf("exit %d, want 130; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "interrupted") {
		t.Errorf("stderr = %q, want an interrupted notice", errb.String())
	}
}

func TestRunDeadlineFlagParses(t *testing.T) {
	path := writeTestGraph(t)
	// A generous deadline must not perturb a normal build.
	out, errOut, code := runTool(t, "-cmd", "build", "-in", path, "-deadline", "1m")
	if code != 0 || !strings.Contains(out, "built HCD") {
		t.Errorf("exit %d:\n%s%s", code, out, errOut)
	}
}

func TestRunMaintain(t *testing.T) {
	path := writeTestGraph(t)
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "ops.txt")
	ops := "# connect the two K4s, then undo\ni 0 4\ni 1 5\nd 0 4\nd 1 5\n"
	if err := os.WriteFile(streamPath, []byte(ops), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"traversal", "order"} {
		out, errOut, code := runTool(t, "-cmd", "maintain", "-in", path,
			"-stream", streamPath, "-engine", engine)
		if code != 0 {
			t.Fatalf("engine %s: exit %d: %s", engine, code, errOut)
		}
		if !strings.Contains(out, "applied 4 operations") || !strings.Contains(out, "kmax=3") {
			t.Errorf("engine %s output wrong:\n%s", engine, out)
		}
	}
	// Errors.
	if _, _, code := runTool(t, "-cmd", "maintain", "-in", path); code != 2 {
		t.Error("missing -stream not rejected")
	}
	if _, _, code := runTool(t, "-cmd", "maintain", "-in", path,
		"-stream", streamPath, "-engine", "warp"); code != 2 {
		t.Error("unknown engine not rejected")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("x 1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runTool(t, "-cmd", "maintain", "-in", path, "-stream", bad); code != 1 {
		t.Error("malformed stream not rejected")
	}
	dup := filepath.Join(dir, "dup.txt")
	if err := os.WriteFile(dup, []byte("i 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runTool(t, "-cmd", "maintain", "-in", path, "-stream", dup); code != 1 {
		t.Error("duplicate edge insert not reported")
	}
}

// TestRunBuildPrintsPhases checks the human summary carries the
// per-phase breakdown for build and search.
func TestRunBuildPrintsPhases(t *testing.T) {
	path := writeTestGraph(t)
	out, _, code := runTool(t, "-cmd", "build", "-in", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"build phases:", "peel", "phcd"} {
		if !strings.Contains(out, want) {
			t.Errorf("build output missing %q:\n%s", want, out)
		}
	}
	out, _, code = runTool(t, "-cmd", "search", "-in", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"search phases:", "search.primary", "search.score"} {
		if !strings.Contains(out, want) {
			t.Errorf("search output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTraceExport checks -trace writes valid Chrome trace JSON whose
// root "build" span contains the pipeline phases — the span covers the
// whole BuildCtx call by construction, which is how the trace accounts
// for (≥95% of) BuildReport.Elapsed.
func TestRunTraceExport(t *testing.T) {
	path := writeTestGraph(t)
	tracePath := filepath.Join(t.TempDir(), "out.json")
	_, errOut, code := runTool(t, "-cmd", "build", "-in", path, "-trace", tracePath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "wrote trace to") {
		t.Errorf("trace write not reported:\n%s", errOut)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatalf("trace has no events:\n%s", raw)
	}
	var build *struct{ ts, dur float64 }
	seen := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		seen[ev.Name] = true
		if ev.Name == "build" {
			build = &struct{ ts, dur float64 }{ev.Ts, ev.Dur}
		}
	}
	if build == nil {
		t.Fatalf("no root build span in trace: %v", seen)
	}
	// coredecomp.buffered is the default peeling kernel's root span
	// (hcd.DefaultPeelKernel).
	for _, want := range []string{"peel", "phcd", "coredecomp.buffered"} {
		if !seen[want] {
			t.Errorf("trace missing span %q (have %v)", want, seen)
		}
	}
	// Every span the command recorded fits inside the root build span
	// (1µs slack for timestamp rounding) — the ≥95% coverage argument.
	for _, ev := range tr.TraceEvents {
		if ev.Ts+1 < build.ts || ev.Ts+ev.Dur > build.ts+build.dur+1 {
			t.Errorf("span %s [%f,+%f] outside build [%f,+%f]",
				ev.Name, ev.Ts, ev.Dur, build.ts, build.dur)
		}
	}
}

// TestRunDebugAddr checks the -debug-addr server starts (and a bad
// address is rejected).
func TestRunDebugAddr(t *testing.T) {
	path := writeTestGraph(t)
	_, errOut, code := runTool(t, "-cmd", "stats", "-in", path, "-debug-addr", "127.0.0.1:0")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(errOut, "debug server on http://127.0.0.1:") {
		t.Errorf("debug server address not reported:\n%s", errOut)
	}
	if _, _, code := runTool(t, "-cmd", "stats", "-in", path, "-debug-addr", "256.0.0.1:bogus"); code != 1 {
		t.Error("bad -debug-addr not rejected")
	}
}
