package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runLint invokes run() with captured stdout/stderr.
func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	capture := func(name string) (*os.File, func() string) {
		f, err := os.CreateTemp(t.TempDir(), name)
		if err != nil {
			t.Fatal(err)
		}
		return f, func() string {
			data, err := os.ReadFile(f.Name())
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			return string(data)
		}
	}
	outF, outRead := capture("stdout")
	errF, errRead := capture("stderr")
	code = run(args, outF, errF)
	return code, outRead(), errRead()
}

const fixtureRoot = "../../internal/lint/testdata/src"

func TestListPrintsCatalogue(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	catalogue := []string{"determinism", "panic-safety", "site-hygiene", "errcheck",
		"ctx-propagation", "atomic-discipline", "goroutine-lifetime", "hot-loop-alloc"}
	for _, check := range catalogue {
		if !strings.Contains(out, check) {
			t.Errorf("-list output missing %q:\n%s", check, out)
		}
	}
	if n := strings.Count(out, "\n"); n != len(catalogue) {
		t.Errorf("-list printed %d checks, want %d:\n%s", n, len(catalogue), out)
	}
}

// TestFixturesExitNonZero is the CLI half of the fixture acceptance:
// pointing hcdlint at each testdata package must exit 1 and report a
// finding positioned inside that package's file.
func TestFixturesExitNonZero(t *testing.T) {
	for fixture, check := range map[string]string{
		"core":        "determinism",
		"panicsafety": "panic-safety",
		"sitehygiene": "site-hygiene",
		"errcheck":    "errcheck",
		"allowdir":    "allow",
		"ctxprop":     "ctx-propagation",
		"atomics":     "atomic-discipline",
		"goroutines":  "goroutine-lifetime",
		"treeaccum":   "hot-loop-alloc",
	} {
		t.Run(fixture, func(t *testing.T) {
			code, out, errOut := runLint(t, filepath.Join(fixtureRoot, fixture))
			if code != 1 {
				t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
			}
			wantFile := "internal/lint/testdata/src/" + fixture + "/" + fixture + ".go:"
			if !strings.Contains(out, wantFile) {
				t.Errorf("findings not positioned in %s:\n%s", wantFile, out)
			}
			if !strings.Contains(out, "["+check+"]") {
				t.Errorf("no [%s] finding reported:\n%s", check, out)
			}
		})
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runLint(t, "-json", filepath.Join(fixtureRoot, "errcheck"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var doc struct {
		Version     int `json:"version"`
		Count       int `json:"count"`
		Diagnostics []struct {
			Check string `json:"check"`
			File  string `json:"file"`
			Line  int    `json:"line"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if doc.Count != len(doc.Diagnostics) || doc.Count == 0 {
		t.Fatalf("inconsistent count %d vs %d diagnostics", doc.Count, len(doc.Diagnostics))
	}
	for _, d := range doc.Diagnostics {
		if d.Check != "errcheck" || d.Line == 0 || !strings.HasSuffix(d.File, "errcheck.go") {
			t.Errorf("unexpected diagnostic %+v", d)
		}
	}
}

func TestChecksSubset(t *testing.T) {
	// The sitehygiene fixture has no errcheck findings, so restricting to
	// errcheck must come back clean.
	code, out, errOut := runLint(t, "-checks", "errcheck", filepath.Join(fixtureRoot, "sitehygiene"))
	if code != 0 {
		t.Errorf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if code, _, errOut := runLint(t, "-checks", "nosuchcheck", "."); code != 2 || !strings.Contains(errOut, "unknown check") {
		t.Errorf("unknown check: exit %d, stderr %q; want exit 2 naming the check", code, errOut)
	}
	// Every unknown name is reported at once, before the module load.
	if code, _, errOut := runLint(t, "-checks", "bogus,errcheck,alsobogus", "."); code != 2 ||
		!strings.Contains(errOut, `"bogus"`) || !strings.Contains(errOut, `"alsobogus"`) {
		t.Errorf("multiple unknown checks: exit %d, stderr %q; want exit 2 naming both", code, errOut)
	}
}

// TestWholeModuleClean mirrors the CI gate from the CLI side.
func TestWholeModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	code, out, errOut := runLint(t, "./...")
	if code != 0 {
		t.Errorf("tree has findings (exit %d):\n%s%s", code, out, errOut)
	}
}
