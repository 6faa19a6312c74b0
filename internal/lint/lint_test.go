package lint

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// sharedLoader amortises the one-off `go list -export` call across tests.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// runFixture lints one testdata/src package with the full catalogue.
func runFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	loader := newTestLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	ctx := &Context{Loader: loader, Pkgs: []*Package{pkg}}
	diags, err := Run(ctx, AllChecks())
	if err != nil {
		t.Fatalf("lint.Run on fixture %s: %v", name, err)
	}
	return diags
}

// renderDiags formats findings with basename-only paths so the golden
// files are machine-independent.
func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", filepath.Base(d.File), d.Line, d.Col, d.Check, d.Message)
	}
	return b.String()
}

// TestFixtures compares each fixture's findings against its golden file.
// Regenerate with `go test ./internal/lint -run TestFixtures -update`.
func TestFixtures(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	for _, dir := range fixtures {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			got := renderDiags(runFixture(t, name))
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestFixturesFindEveryCheck guards the fixture corpus itself: each
// first-class check must fire at least once across the fixtures, so a
// check silently broken into a no-op fails here even if every golden
// file still matches.
func TestFixturesFindEveryCheck(t *testing.T) {
	fired := map[string]bool{}
	for _, name := range []string{"core", "hindex", "panicsafety", "httpsafety", "sitehygiene", "errcheck", "allowdir", "ctxprop", "goroutines", "atomics", "treeaccum"} {
		for _, d := range runFixture(t, name) {
			fired[d.Check] = true
		}
	}
	for _, check := range []string{"determinism", "panic-safety", "site-hygiene", "errcheck", "allow", "ctx-propagation", "goroutine-lifetime", "atomic-discipline", "hot-loop-alloc"} {
		if !fired[check] {
			t.Errorf("no fixture finding for check %q", check)
		}
	}
}

// TestAllowFiltering pins the directive semantics on the allowdir
// fixture: a well-formed directive waives the next line, a malformed one
// is itself a finding, and a directive for the wrong check waives
// nothing.
func TestAllowFiltering(t *testing.T) {
	diags := runFixture(t, "allowdir")
	byCheck := map[string]int{}
	for _, d := range diags {
		byCheck[d.Check]++
	}
	// Two malformed directives (no check name; no reason).
	if byCheck["allow"] != 2 {
		t.Errorf("want 2 malformed-directive findings, got %d\n%s", byCheck["allow"], renderDiags(diags))
	}
	// Three surviving errcheck findings: below the two malformed
	// directives and below the wrong-check directive. The justified
	// waiver suppresses the fourth.
	if byCheck["errcheck"] != 3 {
		t.Errorf("want 3 surviving errcheck findings, got %d\n%s", byCheck["errcheck"], renderDiags(diags))
	}
}

// TestModuleTreeClean is the repo-wide gate: the current tree must be
// finding-free. A finding here means new code needs fixing or a
// justified //hcdlint:allow.
func TestModuleTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	loader := newTestLoader(t)
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	ctx := &Context{Loader: loader, Pkgs: pkgs}
	diags, err := Run(ctx, AllChecks())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestWriteJSON pins the machine-readable schema the CI artifact upload
// depends on.
func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	diags := []Diagnostic{{Check: "errcheck", File: "x.go", Line: 3, Col: 2, Message: "m"}}
	if err := WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version     int          `json:"version"`
		Count       int          `json:"count"`
		Diagnostics []Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Version != 1 || doc.Count != 1 || len(doc.Diagnostics) != 1 || doc.Diagnostics[0] != diags[0] {
		t.Errorf("round trip mismatch: %+v", doc)
	}
	buf.Reset()
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"diagnostics": []`) {
		t.Errorf("empty findings must serialise as an empty array, got %s", buf.String())
	}
}

// TestKernelPackageMatching pins the base-name rule fixtures rely on.
func TestKernelPackageMatching(t *testing.T) {
	for path, want := range map[string]bool{
		"hcd/internal/core":                       true,
		"hcd/internal/lint/testdata/src/core":     true,
		"hcd/internal/lint/testdata/src/hindex":   true,
		"hcd/internal/coredecomp":                 true,
		"hcd/internal/search":                     true,
		"hcd/internal/obs":                        false,
		"hcd/internal/lint/testdata/src/errcheck": false,
	} {
		if got := IsKernelPackage(path); got != want {
			t.Errorf("IsKernelPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
