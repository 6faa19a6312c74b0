// Package lint is hcdlint: a from-scratch static-analysis suite that
// machine-enforces the repository's determinism and panic-safety
// invariants — the properties the paper's "parallel equals serial"
// correctness story (Theorems 1-3) rests on. Built entirely on
// the standard library's go/parser + go/ast + go/types + go/importer;
// no golang.org/x/tools.
//
// The check catalogue (see DESIGN.md "Static analysis & invariants"):
//
//	determinism   kernel packages stay free of wall-clock reads, global
//	              math/rand, and map-iteration writes into ordered output
//	panic-safety  the re-panicking par.For/ForEach/ForChunked/Run
//	              wrappers stay out of library code (use the *Err
//	              ctx-aware variants)
//	site-hygiene  faultinject.Maybe sites and obs span/metric names are
//	              unique string literals matching the documented grammar
//	errcheck      unchecked error returns in non-test library code
//
// Four further checks ride the whole-module call graph (callgraph.go):
//
//	ctx-propagation    a function holding a ctx must pass it down to
//	                   cancellable work — no Background/TODO laundering,
//	                   no dropped ctx parameter
//	atomic-discipline  locations touched via sync/atomic are never read
//	                   or written plainly; 64-bit atomic fields stay
//	                   aligned on 32-bit layouts
//	goroutine-lifetime every go statement in library code is provably
//	                   bounded (WaitGroup/channel join, or a Done-like
//	                   signal in reach)
//	hot-loop-alloc     kernel inner loops stay free of allocation-forcing
//	                   constructs (closures, fmt, string concat,
//	                   unpreallocated append)
//
// A finding on a line can be waived with a directive comment on that
// line or the line above:
//
//	//hcdlint:allow <check> <reason>
//
// The reason is mandatory; an allow without one is itself a finding.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Check is the name of the check that produced the finding.
	Check string `json:"check"`
	// File is the path of the offending file (module-root-relative when
	// produced through Run).
	File string `json:"file"`
	// Line and Col are 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message describes the finding.
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one analysis pass over the loaded packages.
type Check struct {
	// Name is the identifier used in output and allow directives.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run inspects ctx's packages and reports findings. Module-level:
	// a check sees every in-scope package at once, so cross-package
	// properties (duplicate site names) are one pass.
	Run func(ctx *Context) ([]Diagnostic, error)
}

// Context is what a check gets to work with.
type Context struct {
	// Loader built Pkgs.
	Loader *Loader
	// Pkgs are the in-scope packages, in import-path order.
	Pkgs []*Package

	cg *CallGraph // built on first CallGraph() call, shared by checks
}

// Fset returns the position table for Pkgs.
func (c *Context) Fset() *token.FileSet { return c.Loader.Fset }

// CallGraph returns the whole-module call graph over Pkgs, building it
// on first use (the interprocedural checks share one instance).
func (c *Context) CallGraph() *CallGraph {
	if c.cg == nil {
		c.cg = BuildCallGraph(c)
	}
	return c.cg
}

// relPos renders a position module-root-relative ("file.go:12") for use
// inside messages, keeping findings machine-independent.
func (c *Context) relPos(pos token.Pos) string {
	p := c.Fset().Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(c.Loader.Dir, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// diag builds a Diagnostic at pos.
func (c *Context) diag(check string, pos token.Pos, format string, args ...any) Diagnostic {
	p := c.Fset().Position(pos)
	return Diagnostic{
		Check:   check,
		File:    p.Filename,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// AllChecks returns the full catalogue, in documentation order: the
// four per-function checks, then the four call-graph-backed ones.
func AllChecks() []*Check {
	return []*Check{
		determinismCheck(),
		panicSafetyCheck(),
		siteHygieneCheck(),
		errcheckCheck(),
		ctxPropagationCheck(),
		atomicDisciplineCheck(),
		goroutineLifetimeCheck(),
		hotLoopAllocCheck(),
	}
}

// allowDirective is one parsed //hcdlint:allow comment.
type allowDirective struct {
	check  string
	reason string
	pos    token.Position
}

const allowPrefix = "//hcdlint:allow"

// collectAllows parses every //hcdlint:allow directive in the packages.
// Malformed directives (no check name, or no reason) are reported as
// findings of the pseudo-check "allow".
func collectAllows(ctx *Context) (map[string]map[int][]allowDirective, []Diagnostic) {
	allows := map[string]map[int][]allowDirective{} // file -> line -> directives
	var diags []Diagnostic
	for _, pkg := range ctx.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					pos := ctx.Fset().Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, allowPrefix)
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						diags = append(diags, Diagnostic{
							Check: "allow", File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: "allow directive needs a check name and a reason: //hcdlint:allow <check> <reason>",
						})
						continue
					}
					if len(fields) == 1 {
						diags = append(diags, Diagnostic{
							Check: "allow", File: pos.Filename, Line: pos.Line, Col: pos.Column,
							Message: fmt.Sprintf("allow directive for %q needs a reason", fields[0]),
						})
						continue
					}
					d := allowDirective{
						check:  fields[0],
						reason: strings.Join(fields[1:], " "),
						pos:    pos,
					}
					byLine := allows[pos.Filename]
					if byLine == nil {
						byLine = map[int][]allowDirective{}
						allows[pos.Filename] = byLine
					}
					byLine[pos.Line] = append(byLine[pos.Line], d)
				}
			}
		}
	}
	return allows, diags
}

// allowed reports whether a directive for check exists on the
// diagnostic's line or the line directly above it.
func allowed(allows map[string]map[int][]allowDirective, d Diagnostic) bool {
	byLine := allows[d.File]
	if byLine == nil {
		return false
	}
	for _, line := range [2]int{d.Line, d.Line - 1} {
		for _, a := range byLine[line] {
			if a.check == d.Check {
				return true
			}
		}
	}
	return false
}

// Run executes the checks over ctx's packages, applies the allow
// directives, and returns the surviving findings sorted by position.
func Run(ctx *Context, checks []*Check) ([]Diagnostic, error) {
	allows, diags := collectAllows(ctx)
	for _, ch := range checks {
		ds, err := ch.Run(ctx)
		if err != nil {
			return nil, fmt.Errorf("lint: check %s: %w", ch.Name, err)
		}
		for _, d := range ds {
			if !allowed(allows, d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// WriteJSON emits the machine-readable findings document.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	doc := struct {
		Version     int          `json:"version"`
		Count       int          `json:"count"`
		Diagnostics []Diagnostic `json:"diagnostics"`
	}{Version: 1, Count: len(diags), Diagnostics: diags}
	if doc.Diagnostics == nil {
		doc.Diagnostics = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// walkFiles applies fn to every non-test file of every package.
func walkFiles(ctx *Context, fn func(pkg *Package, f *ast.File)) {
	for _, pkg := range ctx.Pkgs {
		for _, f := range pkg.Files {
			fn(pkg, f)
		}
	}
}

// pkgBase returns the last path element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// hasPathSegment reports whether seg appears as a whole segment of the
// import path (e.g. "cmd" in "hcd/cmd/hcdtool").
func hasPathSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
