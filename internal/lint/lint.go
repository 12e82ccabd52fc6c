// Package lint implements hilos-lint: four static analyzers that turn the
// simulator's determinism, numeric and concurrency conventions into
// machine-checked invariants (see the package-level doc.go Invariants
// section at the repository root):
//
//   - simdeterminism — no wall-clock, entropy or map-iteration-order leaks
//     in the simulation packages;
//   - floataccum — no raw float32 loop accumulation in the numeric kernels
//     outside the float64 Partial/Stats machinery;
//   - guardedby — fields annotated `// guarded by <mu>` are only touched
//     with the named mutex held;
//   - heapsafe — priority-ordering fields of heap items (internal/sim's
//     task and resource heaps, internal/cluster's event heap) are only
//     mutated on the heap's own maintenance paths.
//
// Deliberate exceptions are annotated in source with
// `//lint:allow <rule> <reason>` (line, declaration or package scope —
// see internal/lint/analysis). The cmd/hilos-lint driver wires the suite
// into CI.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Analyzers returns the hilos-lint suite in documentation order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{SimDeterminism, FloatAccum, GuardedBy, HeapSafe}
}

// ByName returns the analyzer with the given rule name.
func ByName(name string) (*analysis.Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Run executes the analyzers over the loaded packages, honoring each
// analyzer's package scope (unless force is set, which the fixture tests
// use) and the //lint:allow suppressions, and returns the surviving
// diagnostics in file/position order.
func Run(res *load.Result, analyzers []*analysis.Analyzer, force bool) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, pkg := range res.Packages {
		var pkgDiags []analysis.Diagnostic
		for _, a := range analyzers {
			if !force && !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			pass := analysis.NewPass(a, res.Fset, pkg.Files, pkg.Types, pkg.TypesInfo, &pkgDiags)
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
		allows := analysis.CollectAllows(res.Fset, pkg.Files)
		diags = append(diags, allows.Filter(pkgDiags)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := res.Fset.Position(diags[i].Pos), res.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
	return diags, nil
}

// helpers shared by the analyzers

// funcObj resolves a call expression to the *types.Func it invokes, or nil
// for builtins, conversions and indirect calls through variables.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// qualifiedName returns "pkgpath.Name" for package-level functions and
// "pkgpath.recv.Name" for methods, or "" when the object has no package.
func qualifiedName(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// rootObj returns the object anchoring an lvalue or value expression: the
// field object for selector chains, the variable object for plain
// identifiers, unwrapping parens, stars and index expressions.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return info.Uses[x.Sel]
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// usesObject reports whether the expression subtree references obj.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
		}
		return !found
	})
	return found
}

// isFloat reports whether the type's core is a floating-point basic type,
// and whether that basic type is exactly float32.
func isFloat(t types.Type) (isFloat, isFloat32 bool) {
	if t == nil {
		return false, false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false, false
	}
	switch b.Kind() {
	case types.Float32:
		return true, true
	case types.Float64:
		return true, false
	}
	return false, false
}

// enclosingFunc returns the FuncDecl in file containing pos, or nil.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && pos >= fd.Pos() && pos < fd.End() {
			return fd
		}
	}
	return nil
}
