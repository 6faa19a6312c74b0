// site-hygiene: fault-injection sites and observability span/metric
// names are string keys matched at runtime — a typo'd or duplicated
// name fails silently (a HCD_FAULTS rule that never fires, a trace that
// mis-attributes work). This check pins every name to a unique string
// literal matching the documented grammar:
//
//	spans & fault sites   pkg.phase[.step]   e.g. "phcd.step2", "peel.round"
//	                      segments: [a-z][a-z0-9]*, 1-3 of them, dot-separated
//	metrics               prometheus style   e.g. "hcd_fault_fired_total"
//	                      hcd_[a-z][a-z0-9_]* — the hcd_ namespace prefix
//	                      is mandatory, so every exported series (the
//	                      hcd_mem_* memory gauges included) is greppable
//	                      and never collides with another exporter's
//	phase stats           span grammar plus '+' fused-stage separators
//	                      e.g. "rank+layout"; names legitimately repeat
//	                      their StartPhase span, so no duplicate check
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var (
	siteNameRe   = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*){0,2}$`)
	metricNameRe = regexp.MustCompile(`^hcd_[a-z][a-z0-9_]*$`)
	phaseNameRe  = regexp.MustCompile(`^[a-z][a-z0-9]*([.+][a-z][a-z0-9]*){0,2}$`)
)

// nameUse is one collected (name, position) occurrence.
type nameUse struct {
	name string
	pos  token.Pos
}

func siteHygieneCheck() *Check {
	return &Check{
		Name: "site-hygiene",
		Doc:  "faultinject sites and obs span/metric/phase names must be literals matching the name grammars (spans/sites/metrics also unique)",
		Run: func(ctx *Context) ([]Diagnostic, error) {
			module := ctx.Loader.Module
			faultPath := module + "/internal/faultinject"
			obsPath := module + "/internal/obs"
			var diags []Diagnostic
			var sites, spans, metrics []nameUse

			walkFiles(ctx, func(pkg *Package, f *ast.File) {
				// The registries' own implementations manipulate names
				// generically; only call sites are policed.
				if pkg.Path == faultPath || pkg.Path == obsPath {
					return
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeFunc(pkg, call)
					if fn == nil || fn.Pkg() == nil || len(call.Args) == 0 {
						return true
					}
					switch fn.Pkg().Path() {
					case faultPath:
						if fn.Name() == "Maybe" {
							if lit, ok := stringLit(call.Args[0]); ok {
								sites = append(sites, nameUse{lit, call.Args[0].Pos()})
								diags = append(diags, checkGrammar(ctx, "fault site", lit, siteNameRe, call.Args[0].Pos())...)
							} else {
								diags = append(diags, ctx.diag("site-hygiene", call.Args[0].Pos(),
									"faultinject.Maybe site name must be a string literal so rules and docs can reference it"))
							}
						}
					case obsPath:
						switch fn.Name() {
						case "StartSpan", "StartSpanArg", "StartPhase", "StartSpanTag",
							"StartSpanCtx", "StartSpanCtxArg", "StartPhaseCtx":
							// The Ctx constructors take the context first;
							// the span name sits at argument index 1.
							idx := 0
							switch fn.Name() {
							case "StartSpanCtx", "StartSpanCtxArg", "StartPhaseCtx":
								idx = 1
							}
							if len(call.Args) <= idx {
								return true
							}
							if lit, ok := stringLit(call.Args[idx]); ok {
								spans = append(spans, nameUse{lit, call.Args[idx].Pos()})
								diags = append(diags, checkGrammar(ctx, "span", lit, siteNameRe, call.Args[idx].Pos())...)
							} else {
								diags = append(diags, ctx.diag("site-hygiene", call.Args[idx].Pos(),
									"obs.%s span name must be a string literal so traces stay greppable", fn.Name()))
							}
						case "NewPhaseStat":
							// Phase stats share a name with their StartPhase
							// span on purpose — grammar only, no dup check.
							if lit, ok := stringLit(call.Args[0]); ok {
								diags = append(diags, checkGrammar(ctx, "phase", lit, phaseNameRe, call.Args[0].Pos())...)
							} else {
								diags = append(diags, ctx.diag("site-hygiene", call.Args[0].Pos(),
									"obs.NewPhaseStat phase name must be a string literal so phase reports stay greppable"))
							}
						case "NewCounter", "NewGauge", "NewHistogram":
							name, pos, ok := metricBase(pkg, call.Args[0])
							if !ok {
								diags = append(diags, ctx.diag("site-hygiene", call.Args[0].Pos(),
									"obs.%s metric name must be a string literal (or obs.Name with a literal base)", fn.Name()))
								return true
							}
							metrics = append(metrics, nameUse{name, pos})
							diags = append(diags, checkGrammar(ctx, "metric", name, metricNameRe, pos)...)
						}
					}
					return true
				})
			})

			diags = append(diags, checkDuplicates(ctx, "fault site", sites,
				"duplicate fault sites share one hit counter, making rule triggering ambiguous")...)
			diags = append(diags, checkDuplicates(ctx, "span", spans,
				"duplicate span names make trace attribution ambiguous; qualify the name")...)
			diags = append(diags, checkDuplicates(ctx, "metric", metrics,
				"registering one metric name from two sites double-counts")...)
			return diags, nil
		},
	}
}

// stringLit extracts the value of a string basic literal.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// metricBase resolves a metric-name argument: either a direct string
// literal, or an obs.Name(base, labels...) call whose base is a literal
// (label values may be dynamic; the base is what exposition groups by).
func metricBase(pkg *Package, e ast.Expr) (string, token.Pos, bool) {
	if lit, ok := stringLit(e); ok {
		return lit, e.Pos(), true
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return "", 0, false
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Name() != "Name" || fn.Pkg() == nil {
		return "", 0, false
	}
	lit, ok := stringLit(call.Args[0])
	if !ok {
		return "", 0, false
	}
	return lit, call.Args[0].Pos(), true
}

// checkGrammar validates one name against its grammar.
func checkGrammar(ctx *Context, kind, name string, re *regexp.Regexp, pos token.Pos) []Diagnostic {
	if re.MatchString(name) {
		return nil
	}
	return []Diagnostic{ctx.diag("site-hygiene", pos,
		"%s name %q does not match the %s grammar %s", kind, name, kind, re.String())}
}

// checkDuplicates flags every occurrence of a name after its first. The
// first occurrence is cited module-root-relative so messages (and the
// testdata golden files) do not depend on where the module is checked
// out.
func checkDuplicates(ctx *Context, kind string, uses []nameUse, why string) []Diagnostic {
	first := map[string]token.Pos{}
	var diags []Diagnostic
	for _, u := range uses {
		if prev, seen := first[u.name]; seen {
			p := ctx.Fset().Position(prev)
			file := p.Filename
			if rel, err := filepath.Rel(ctx.Loader.Dir, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
			diags = append(diags, ctx.diag("site-hygiene", u.pos,
				"%s name %q already used at %s; %s", kind, u.name, fmt.Sprintf("%s:%d", file, p.Line), why))
			continue
		}
		first[u.name] = u.pos
	}
	return diags
}
