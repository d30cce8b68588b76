package fpe_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// The fusion guard.  A window body runs plain float64 arithmetic, and Go
// lets an implementation fuse x*y + z into one FMA — arm64 and ppc64 do —
// unless the product is rounded by an explicit float64(…) conversion (the
// spec's own examples, "Floating-point operators").  A fused window would
// compute different bits from the per-op path it stands for, on those
// machines only, so amd64 CI could never see it.  This reads the source
// instead: inside every window body — the branch an fpe Ctx.Reserve guards
// — and every function or closure of the same package it calls, a float64
// product must be the operand of a float64(…) conversion, wherever its
// value goes; and the body may call no Ctx method but Tally and nothing in
// simmpi, since a window never spans an op, a region change or a message.

const (
	fpePath    = "resmod/internal/fpe"
	simmpiPath = "resmod/internal/simmpi"
)

// windowAudit is what the guard found in one package.
type windowAudit struct {
	info     *types.Info
	fset     *token.FileSet
	bodies   map[types.Object]*ast.BlockStmt // functions and closures
	walked   map[*ast.BlockStmt]bool
	windows  int
	problems []string
}

// auditWindows type-checks one package's files and audits its windows.
func auditWindows(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*windowAudit, error) {
	a := &windowAudit{
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		fset:   fset,
		bodies: map[types.Object]*ast.BlockStmt{},
		walked: map[*ast.BlockStmt]bool{},
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, a.info); err != nil {
		return nil, err
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					a.bodies[a.info.Defs[n.Name]] = n.Body
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					lit, ok := rhs.(*ast.FuncLit)
					if !ok || len(n.Lhs) != len(n.Rhs) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						if obj := a.info.Defs[id]; obj != nil {
							a.bodies[obj] = lit.Body
						} else {
							a.bodies[a.info.Uses[id]] = lit.Body
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(*ast.IfStmt); ok && a.ctxMethod(s.Cond) == "Reserve" {
				a.windows++
				a.walk(s.Body)
			}
			return true
		})
	}
	return a, nil
}

// callee returns the object a call calls, if it names one.
func (a *windowAudit) callee(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return a.info.Uses[fun]
	case *ast.SelectorExpr:
		return a.info.Uses[fun.Sel]
	}
	return nil
}

// ctxMethod returns the name of the fpe Ctx method e calls, or "".
func (a *windowAudit) ctxMethod(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn, ok := a.callee(call).(*types.Func)
	if !ok || !strings.HasPrefix(fn.FullName(), "(*"+fpePath+".Ctx).") {
		return ""
	}
	return fn.Name()
}

// isFloat64 reports whether e is a non-constant float64 expression.
func (a *windowAudit) isFloat64(e ast.Expr) bool {
	tv := a.info.Types[e]
	return tv.Value == nil && tv.Type != nil && types.Identical(tv.Type, types.Typ[types.Float64])
}

// rounded reports whether the innermost non-parenthesis node of stack is a
// conversion to float64.
func (a *windowAudit) rounded(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		call, ok := stack[i].(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return false
		}
		tv := a.info.Types[call.Fun]
		return tv.IsType() && types.Identical(tv.Type, types.Typ[types.Float64])
	}
	return false
}

func (a *windowAudit) report(n ast.Node, format string, args ...any) {
	a.problems = append(a.problems, fmt.Sprintf("%s: %s", a.fset.Position(n.Pos()), fmt.Sprintf(format, args...)))
}

// walk audits one window body, or a body a window calls, once.
func (a *windowAudit) walk(body *ast.BlockStmt) {
	if a.walked[body] {
		return
	}
	a.walked[body] = true
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.MUL && a.isFloat64(n) && !a.rounded(stack) {
				a.report(n, "float64 product not rounded by float64(…) in a window")
			}
		case *ast.AssignStmt:
			if n.Tok == token.MUL_ASSIGN && a.isFloat64(n.Lhs[0]) {
				a.report(n, "float64 *= in a window")
			}
		case *ast.CallExpr:
			if m := a.ctxMethod(n); m != "" && m != "Tally" {
				a.report(n, "window calls Ctx.%s", m)
			}
			obj := a.callee(n)
			if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == simmpiPath {
				a.report(n, "window calls simmpi's %s", obj.Name())
			}
			if b := a.bodies[obj]; b != nil {
				a.walk(b)
			}
		}
		stack = append(stack, n)
		return true
	})
}

// parseDir parses the non-test Go files of dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestFusionGuard audits fpe and every application package.
func TestFusionGuard(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := filepath.Glob(filepath.Join(root, "apps", "*"))
	if err != nil {
		t.Fatal(err)
	}
	dirs = append([]string{filepath.Join(root, "fpe"), filepath.Join(root, "apps")}, dirs...)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	windows := map[string]int{}
	for _, dir := range dirs {
		files := parseDir(t, fset, dir)
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		a, err := auditWindows(fset, imp, "resmod/internal/"+filepath.ToSlash(rel), files)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, p := range a.problems {
			t.Error(p)
		}
		windows[filepath.Base(dir)] = a.windows
	}
	t.Logf("windows per package: %v", windows)
	for _, pkg := range []string{"fpe", "cg", "ft", "lu", "mg", "minife", "pennant"} {
		if windows[pkg] == 0 {
			t.Errorf("%s: the guard found no window; is it still looking at the right code?", pkg)
		}
	}
}

// TestFusionGuardCatches holds the guard to finding what it is for.
func TestFusionGuardCatches(t *testing.T) {
	const src = `package p

import "resmod/internal/fpe"

func mul(a, b float64) float64 { return a * b }

func kernel(c *fpe.Ctx, x, y []float64) (s float64) {
	scale := func(v float64) float64 { return 2 * v }
	if c.Reserve(8) {
		s += x[0] * y[0]               // fused into the add
		t := x[1] * y[1]               // fused across statements
		s += t + mul(x[2], y[2])       // fused after inlining mul
		s += float64(x[3]*y[3]) + scale(s) // rounded; the closure's is not
		s *= 2                         // a product left unrounded
		c.Tally(0, 0, 0, 0)
		c.Add(s, 1)                    // a per-op call inside a window
	}
	return s
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(t.TempDir(), "p.go"), src, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := auditWindows(fset, importer.ForCompiler(fset, "source", nil), "p", []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.problems) != 6 {
		t.Fatalf("the guard found %d problems, want 6:\n%s", len(a.problems), strings.Join(a.problems, "\n"))
	}
}
