// hcdlint runs the repository's static-analysis suite (internal/lint):
// determinism, panic-safety, site-hygiene, errcheck, and the
// call-graph-backed ctx-propagation, atomic-discipline,
// goroutine-lifetime and hot-loop-alloc checks.
//
// Usage:
//
//	go run ./cmd/hcdlint ./...             lint the whole module
//	go run ./cmd/hcdlint ./internal/core   lint one directory
//	go run ./cmd/hcdlint -json ./...       machine-readable findings
//	go run ./cmd/hcdlint -list             print the check catalogue
//
// Exit status: 0 clean, 1 findings, 2 usage or load error. Waive a
// finding with a `//hcdlint:allow <check> <reason>` comment on the
// offending line or the line above (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hcd/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("hcdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout")
	list := fs.Bool("list", false, "print the check catalogue and exit")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range lint.AllChecks() {
			fmt.Fprintf(stdout, "%-18s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Validate the check selection before the (expensive) module load, and
	// report every unknown name at once.
	checks := lint.AllChecks()
	if *checksFlag != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*checksFlag, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var sel []*lint.Check
		for _, c := range checks {
			if want[c.Name] {
				sel = append(sel, c)
				delete(want, c.Name)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for name := range want {
				unknown = append(unknown, fmt.Sprintf("%q", name))
			}
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "hcdlint: unknown check(s) %s (see -list)\n", strings.Join(unknown, ", "))
			return 2
		}
		checks = sel
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loadPatterns(loader, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := lint.Run(&lint.Context{Loader: loader, Pkgs: pkgs}, checks)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// Report module-root-relative paths: stable across machines, and
	// clickable from the repo root where CI and developers run this.
	for i := range diags {
		if rel, err := filepath.Rel(loader.Dir, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}

	if *jsonOut {
		if err := lint.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "hcdlint: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// loadPatterns materialises the requested packages under one loader.
func loadPatterns(loader *lint.Loader, patterns []string) ([]*lint.Package, error) {
	var pkgs []*lint.Package
	seen := map[string]bool{}
	for _, pat := range patterns {
		var batch []*lint.Package
		var err error
		switch {
		case pat == "./..." || pat == "...":
			batch, err = loader.ModulePackages()
		default:
			var p *lint.Package
			p, err = loader.LoadDir(filepath.Clean(pat))
			if p != nil {
				batch = []*lint.Package{p}
			}
		}
		if err != nil {
			return nil, err
		}
		for _, p := range batch {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	return pkgs, nil
}
