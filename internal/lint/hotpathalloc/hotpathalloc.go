// Package hotpathalloc statically enforces the simulator's
// allocation-free steady state. Functions annotated //itp:hotpath (the
// per-step path TestSteadyStateAllocFree holds at 0 allocs/op) must
// not:
//
//   - take the address of a composite literal (&T{...}) or build a
//     slice/map literal — both heap-allocate;
//   - call append, make, or new;
//   - declare a closure (func literals capture state on the heap);
//   - concatenate strings or convert []byte/[]rune to string;
//   - pass a concrete value where an interface is expected, or convert
//     to an interface type (boxing allocates), except for constants;
//   - start a goroutine;
//   - call anything that is not itself //itp:hotpath, //itp:nonalloc, a
//     permitted builtin (len, cap, copy, delete, clear, min, max, panic,
//     recover), or in an allocation-free stdlib package (sync,
//     sync/atomic, math, math/bits).
//
// Dynamic calls — through func values or unannotated interface methods —
// are flagged because the callee cannot be verified; interface methods
// may themselves be annotated //itp:hotpath, which makes call sites
// through that interface legal (every implementation must then carry the
// annotation too).
//
// Escapes are reviewed, not silent: //itp:cold on a statement's first
// line skips that whole statement subtree (amortized or terminal
// regions), and //itp:nonalloc on a line vouches for the specific
// expression on it. Annotations propagate across packages as analysis
// facts keyed by the function's FullName, so the whole per-step call
// tree is covered transitively. This is the static complement of
// internal/sim's TestSteadyStateAllocFree: the test proves the measured
// path, this analyzer pins every branch of it. Test files are exempt.
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"itpsim/internal/lint/lintcore"
)

// Analyzer is the hotpathalloc check.
var Analyzer = &lintcore.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid heap allocation in //itp:hotpath functions (static complement of TestSteadyStateAllocFree)",
	Run:  run,
}

// allocFreePkgs are stdlib packages whose exported functions are trusted
// not to allocate on the paths the simulator uses.
var allocFreePkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

// allowedBuiltins never allocate (panic/recover only fire on already
// broken runs).
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "delete": true, "clear": true,
	"min": true, "max": true, "panic": true, "recover": true, "print": true, "println": true,
}

// modulePrefix scopes fact lookups to this repository's packages.
const modulePrefix = "itpsim/"

func run(pass *lintcore.Pass) error {
	pkg := pass.Pkg
	dirs := pkg.Directives()

	// Phase 1: index this package's annotated functions and interface
	// methods, and export them as facts for importing packages.
	local := map[string]string{} // FullName -> "hotpath" | "nonalloc"
	var hotDecls []*ast.FuncDecl
	for _, file := range pkg.Files {
		if pkg.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				if lintcore.FuncAnnotated(dirs, decl, lintcore.DirHotpath) {
					local[lintcore.FuncFullName(fn)] = lintcore.DirHotpath
					if decl.Body != nil {
						hotDecls = append(hotDecls, decl)
					}
				} else if lintcore.FuncAnnotated(dirs, decl, lintcore.DirNonalloc) {
					local[lintcore.FuncFullName(fn)] = lintcore.DirNonalloc
				}
			case *ast.GenDecl:
				indexInterfaceMethods(pkg, dirs, decl, local)
			}
		}
	}
	for name, kind := range local {
		pass.ExportFact(name, kind)
	}

	// Phase 2: check the body of every annotated function.
	for _, decl := range hotDecls {
		c := &checker{pass: pass, dirs: dirs, local: local}
		c.walkStmts(decl.Body)
	}
	return nil
}

// indexInterfaceMethods records //itp:hotpath annotations on interface
// method declarations, e.g.
//
//	type Policy interface {
//		//itp:hotpath
//		Victim(set []Line) int
//	}
func indexInterfaceMethods(pkg *lintcore.Package, dirs *lintcore.Directives, decl *ast.GenDecl, local map[string]string) {
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		it, ok := ts.Type.(*ast.InterfaceType)
		if !ok {
			continue
		}
		for _, field := range it.Methods.List {
			for _, name := range field.Names {
				fn, ok := pkg.Info.Defs[name].(*types.Func)
				if !ok {
					continue
				}
				if lintcore.FieldAnnotated(dirs, field, lintcore.DirHotpath) {
					local[lintcore.FuncFullName(fn)] = lintcore.DirHotpath
				} else if lintcore.FieldAnnotated(dirs, field, lintcore.DirNonalloc) {
					local[lintcore.FuncFullName(fn)] = lintcore.DirNonalloc
				}
			}
		}
	}
}

// checker walks one hot-path function body.
type checker struct {
	pass  *lintcore.Pass
	dirs  *lintcore.Directives
	local map[string]string
}

// vouched reports whether the line holding pos carries //itp:nonalloc.
func (c *checker) vouched(n ast.Node) bool {
	return c.dirs.Covers(n.Pos(), lintcore.DirNonalloc)
}

// walkStmts descends into a statement subtree, honoring //itp:cold on a
// statement's first line by skipping the whole statement.
func (c *checker) walkStmts(root ast.Stmt) {
	ast.Inspect(root, func(n ast.Node) bool {
		if stmt, ok := n.(ast.Stmt); ok {
			if c.dirs.Covers(stmt.Pos(), lintcore.DirCold) {
				return false
			}
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			if !c.vouched(n) {
				c.report(n, "go statement on the hot path: goroutine start allocates")
			}
		case *ast.FuncLit:
			if !c.vouched(n) {
				c.report(n, "closure on the hot path: func literals capture on the heap")
			}
			return false // the closure body runs later; it is not the hot path itself
		case *ast.UnaryExpr:
			c.unary(n)
		case *ast.CompositeLit:
			c.composite(n)
		case *ast.BinaryExpr:
			c.binary(n)
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.CallExpr:
			c.call(n)
		}
		return true
	})
}

func (c *checker) report(n ast.Node, format string, args ...any) {
	c.pass.Reportf(n.Pos(), format, args...)
}

func (c *checker) unary(n *ast.UnaryExpr) {
	if n.Op.String() == "&" {
		if _, ok := n.X.(*ast.CompositeLit); ok && !c.vouched(n) {
			c.report(n, "&composite literal on the hot path escapes to the heap")
		}
	}
}

func (c *checker) composite(n *ast.CompositeLit) {
	t := c.pass.Pkg.Info.TypeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		if !c.vouched(n) {
			c.report(n, "slice/map literal on the hot path allocates")
		}
	}
}

func (c *checker) binary(n *ast.BinaryExpr) {
	// Constant concatenation folds at compile time.
	if n.Op.String() != "+" || isConstant(c.pass.Pkg.Info, n) {
		return
	}
	if isStringType(c.pass.Pkg.Info.TypeOf(n)) && !c.vouched(n) {
		c.report(n, "string concatenation on the hot path allocates")
	}
}

// assign catches `s += t` on strings, which never surfaces as a
// BinaryExpr.
func (c *checker) assign(n *ast.AssignStmt) {
	if n.Tok.String() != "+=" || len(n.Lhs) != 1 {
		return
	}
	if isStringType(c.pass.Pkg.Info.TypeOf(n.Lhs[0])) && !c.vouched(n) {
		c.report(n, "string concatenation on the hot path allocates")
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (c *checker) call(call *ast.CallExpr) {
	info := c.pass.Pkg.Info

	// Conversions: T(x). Numeric and same-kind conversions are free;
	// boxing into an interface and []byte<->string materialize storage.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.conversion(call, tv.Type)
		return
	}

	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Builtin:
			c.builtin(call, obj.Name())
		case *types.Func:
			c.static(call, obj)
		case nil:
			// Unresolved (broken code): nothing to say.
		default:
			if !c.vouched(call) {
				c.report(call, "dynamic call through %s on the hot path: callee cannot be verified allocation-free (annotate //itp:nonalloc if reviewed)", fun.Name)
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				c.static(call, sel.Obj().(*types.Func))
			default:
				if !c.vouched(call) {
					c.report(call, "dynamic call through field %s on the hot path: callee cannot be verified allocation-free (annotate //itp:nonalloc if reviewed)", fun.Sel.Name)
				}
			}
		} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			c.static(call, fn)
		} else if !c.vouched(call) {
			c.report(call, "dynamic call through %s on the hot path: callee cannot be verified allocation-free (annotate //itp:nonalloc if reviewed)", fun.Sel.Name)
		}
	default:
		if !c.vouched(call) {
			c.report(call, "call of a function value on the hot path: callee cannot be verified allocation-free (annotate //itp:nonalloc if reviewed)")
		}
	}

	c.interfaceArgs(call)
}

func (c *checker) conversion(call *ast.CallExpr, target types.Type) {
	if c.vouched(call) || len(call.Args) != 1 {
		return
	}
	src := c.pass.Pkg.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	if types.IsInterface(target.Underlying()) && !types.IsInterface(src.Underlying()) {
		if !isConstant(c.pass.Pkg.Info, call.Args[0]) {
			c.report(call, "conversion to interface type %s on the hot path boxes its operand", types.TypeString(target, nil))
		}
		return
	}
	if b, ok := target.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		if _, ok := src.Underlying().(*types.Slice); ok {
			c.report(call, "[]byte/[]rune to string conversion on the hot path allocates")
		}
	}
}

func (c *checker) builtin(call *ast.CallExpr, name string) {
	if allowedBuiltins[name] {
		return
	}
	if c.vouched(call) {
		return
	}
	switch name {
	case "append":
		c.report(call, "append on the hot path may grow the backing array (pre-size the slice, or //itp:nonalloc if provably within cap)")
	case "make", "new":
		c.report(call, "%s on the hot path allocates", name)
	default:
		c.report(call, "builtin %s is not on the hot-path allowlist", name)
	}
}

// static checks a call whose callee resolved to a *types.Func: either a
// concrete function/method or an interface method (dynamic dispatch, but
// annotatable at the interface declaration).
func (c *checker) static(call *ast.CallExpr, fn *types.Func) {
	if c.vouched(call) {
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		// Universe-scope methods (error.Error): unverifiable.
		c.report(call, "call to %s on the hot path: callee cannot be verified allocation-free", fn.Name())
		return
	}
	if allocFreePkgs[pkg.Path()] {
		return
	}
	name := lintcore.FuncFullName(fn)
	if kind, ok := c.local[name]; ok && (kind == lintcore.DirHotpath || kind == lintcore.DirNonalloc) {
		return
	}
	if strings.HasPrefix(pkg.Path(), modulePrefix) || pkg.Path() == c.pass.Pkg.ImportPath {
		if _, ok := c.pass.Fact(pkg.Path(), name); ok {
			return
		}
	}
	if isInterfaceMethod(fn) {
		c.report(call, "dynamic dispatch through %s on the hot path: annotate the interface method //itp:hotpath (and every implementation) or the site //itp:nonalloc", name)
		return
	}
	c.report(call, "call to %s from the hot path: callee is not //itp:hotpath or //itp:nonalloc", name)
}

// interfaceArgs flags implicit boxing: a non-constant concrete value
// passed where the callee expects an interface. Variadic calls with
// ... expansion pass a slice and are skipped.
func (c *checker) interfaceArgs(call *ast.CallExpr) {
	info := c.pass.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if isConstant(info, arg) || isNil(info, arg) {
			continue
		}
		if c.vouched(call) || c.vouched(arg) {
			continue
		}
		c.report(arg, "argument boxes %s into interface %s on the hot path", types.TypeString(at, nil), types.TypeString(pt, nil))
	}
}

func isConstant(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func isNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type().Underlying())
}
