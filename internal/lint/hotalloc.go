// hot-loop-alloc: the loop bodies handed to par.For*/For*Err are the
// kernels' inner loops — executed once per chunk, iterating millions of
// elements. An allocation inside one turns a memory-bandwidth-bound
// kernel into a GC-bound one, and the measured scaling quietly
// decays. Inside kernel packages (the determinism package list) this
// check flags the allocation-forcing constructs at their source:
//
//	closure        a func literal nested in the hot body allocates per
//	               invocation (and often captures loop state by
//	               reference)
//	fmt            any fmt.* call formats through interfaces — boxing
//	               allocations plus reflection
//	string concat  non-constant string + / += builds a new string per
//	               operation
//	append         growing a captured (loop-hoisted) slice races across
//	               workers; growing a body-local slice declared without
//	               capacity reallocates log(n) times per chunk —
//	               preallocate with make(len/cap) outside or size it.
//	               The capacity-reuse idioms are clean: initialising
//	               from a reslice of a per-worker buffer
//	               (local := bufs[t][:0]) or recycling in place
//	               (scratch = scratch[:0]) both amortise to zero
//	               steady-state allocation
//
// Sites that are provably cold (error paths, once-per-chunk setup) or
// deliberate carry an //hcdlint:allow with the argument.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotLoopEntry maps the par entry points to the index of their body
// argument (the hot loop). RunErr/Run are one-shot task launchers, not
// loops, and are exempt.
var hotLoopEntry = map[string]bool{
	"For": true, "ForEach": true, "ForChunked": true,
	"ForErr": true, "ForEachErr": true, "ForChunkedErr": true,
}

func hotLoopAllocCheck() *Check {
	return &Check{
		Name: "hot-loop-alloc",
		Doc:  "kernel loop bodies passed to par.For*/For*Err must avoid closures, fmt, string concatenation, and growing appends",
		Run: func(ctx *Context) ([]Diagnostic, error) {
			parPath := ctx.Loader.Module + "/internal/par"
			var diags []Diagnostic
			walkFiles(ctx, func(pkg *Package, f *ast.File) {
				if !IsKernelPackage(pkg.Path) {
					return
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := calleeFunc(pkg, call)
					if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != parPath ||
						!hotLoopEntry[fn.Name()] || len(call.Args) == 0 {
						return true
					}
					body, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
					if !ok {
						return true
					}
					diags = append(diags, hotBodyFindings(ctx, pkg, fn.Name(), body)...)
					return true
				})
			})
			return diags, nil
		},
	}
}

// hotBodyFindings scans one hot-loop body literal.
func hotBodyFindings(ctx *Context, pkg *Package, entry string, body *ast.FuncLit) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(body.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			diags = append(diags, ctx.diag("hot-loop-alloc", n.Pos(),
				"func literal inside a par.%s body allocates a closure per invocation; hoist it out of the hot loop", entry))
			return false // its innards are the closure's problem, reported once
		case *ast.CallExpr:
			if fn := calleeFunc(pkg, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				diags = append(diags, ctx.diag("hot-loop-alloc", n.Pos(),
					"fmt.%s inside a par.%s body allocates (interface boxing + reflection) per call; format outside the kernel or use strconv on a preallocated buffer", fn.Name(), entry))
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					diags = append(diags, appendFinding(ctx, pkg, entry, body, n)...)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(pkg, n) {
				diags = append(diags, ctx.diag("hot-loop-alloc", n.Pos(),
					"string concatenation inside a par.%s body allocates per operation; build strings outside the kernel", entry))
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isNonConstString(pkg, n.Lhs[0]) {
				diags = append(diags, ctx.diag("hot-loop-alloc", n.Pos(),
					"string += inside a par.%s body allocates per operation; build strings outside the kernel", entry))
			}
		}
		return true
	})
	return diags
}

// isNonConstString reports whether e has string type and is not a
// compile-time constant (constant folding costs nothing at runtime).
func isNonConstString(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// appendFinding classifies an append in a hot body: appending to a
// slice captured from outside the body is an allocation and a
// cross-worker race; appending to a body-local slice declared without
// capacity reallocates as it grows.
func appendFinding(ctx *Context, pkg *Package, entry string, body *ast.FuncLit, call *ast.CallExpr) []Diagnostic {
	id := rootIdent(call.Args[0])
	if id == nil {
		return nil
	}
	obj := pkg.Info.ObjectOf(id)
	if obj == nil || obj.Pos() == token.NoPos {
		return nil
	}
	if obj.Pos() < body.Pos() || obj.Pos() > body.End() {
		return []Diagnostic{ctx.diag("hot-loop-alloc", call.Pos(),
			"append to %q, captured from outside the par.%s body: reallocation plus a cross-worker data race; give each worker its own buffer or preallocate and index", id.Name, entry)}
	}
	if preallocated(pkg, body, obj) {
		return nil
	}
	return []Diagnostic{ctx.diag("hot-loop-alloc", call.Pos(),
		"append grows body-local %q, declared without capacity: it reallocates as it grows every invocation; preallocate with make(..., 0, cap)", id.Name)}
}

// preallocated reports whether obj provably carries capacity inside
// body: declared with a make carrying an explicit cap or a non-zero
// length, initialised from a reslice of an existing buffer
// (local := bufs[t][:0]), or recycled in place (obj = obj[:0]). Only
// `var s []T`, `s := []T{}` and `make([]T, 0)` grow from nothing.
func preallocated(pkg *Package, body *ast.FuncLit, obj types.Object) bool {
	prealloc := false
	ast.Inspect(body.Body, func(n ast.Node) bool {
		if prealloc {
			return false
		}
		var rhs ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				switch n.Tok {
				case token.DEFINE:
					if pkg.Info.Defs[lid] == obj {
						rhs = n.Rhs[i]
					}
				case token.ASSIGN:
					// obj = obj[:0] — the in-place recycle idiom.
					if pkg.Info.Uses[lid] != obj {
						continue
					}
					if se, ok := ast.Unparen(n.Rhs[i]).(*ast.SliceExpr); ok {
						if rid := rootIdent(se.X); rid != nil && pkg.Info.Uses[rid] == obj {
							prealloc = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pkg.Info.Defs[name] == obj && i < len(n.Values) {
					rhs = n.Values[i]
				}
			}
		default:
			return true
		}
		if rhs == nil {
			return true
		}
		// A reslice of an existing buffer inherits its capacity.
		if _, ok := ast.Unparen(rhs).(*ast.SliceExpr); ok {
			prealloc = true
			return true
		}
		mk, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return true
		}
		mid, ok := ast.Unparen(mk.Fun).(*ast.Ident)
		if !ok || mid.Name != "make" {
			return true
		}
		if _, isBuiltin := pkg.Info.Uses[mid].(*types.Builtin); !isBuiltin {
			return true
		}
		switch len(mk.Args) {
		case 3:
			prealloc = true
		case 2:
			if lit, ok := ast.Unparen(mk.Args[1]).(*ast.BasicLit); !ok || lit.Value != "0" {
				prealloc = true
			}
		}
		return true
	})
	return prealloc
}
