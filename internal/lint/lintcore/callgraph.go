package lintcore

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared interprocedural foundation of the concurrency
// analyzers (machineown, goroutinelife, lockscope): a per-package call
// graph with per-function syntactic summaries (call sites, channel
// operations, go statements, nested closures) plus a bottom-up fixpoint
// engine for may-properties ("may block", "observes a
// cancellation signal") that analyzers extend across package boundaries
// through the existing fact store. Function literals get their own nodes:
// a closure's body does not run when its enclosing function runs, so its
// operations must not leak into the enclosing function's summary.

// CallSite is one call expression in a function body. Callee is the
// statically resolved callee — a package-level function, a concrete
// method, or an interface method — and nil for calls through func values
// (dynamic, unverifiable).
type CallSite struct {
	Call   *ast.CallExpr
	Callee *types.Func
}

// ChanOpKind classifies a channel operation.
type ChanOpKind int

const (
	// ChanSend is ch <- v outside a select.
	ChanSend ChanOpKind = iota
	// ChanRecv is <-ch outside a select.
	ChanRecv
	// ChanSelect is a whole select statement (its comm clauses are part
	// of the select, not separate operations; clause bodies are walked
	// normally).
	ChanSelect
	// ChanRange is a range over a channel.
	ChanRange
)

// ChanOp is one channel operation in a function body.
type ChanOp struct {
	Kind ChanOpKind
	Node ast.Node
	// Ch is the channel operand (nil for ChanSelect).
	Ch ast.Expr
}

// FuncNode is the call-graph node of one function body: a declared
// function/method (Decl set) or a function literal (Lit set).
type FuncNode struct {
	// Fn is the declared function's object; nil for literals.
	Fn   *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit

	// Calls are the body's call sites in source order, literals excluded.
	Calls []CallSite
	// ChanOps are the body's channel operations, literals excluded.
	ChanOps []ChanOp
	// Gos are the body's go statements, literals excluded.
	Gos []*ast.GoStmt
	// Lits are the function literals declared directly in this body (each
	// has its own node).
	Lits []*ast.FuncLit
}

// CallGraph indexes every function body of one package.
type CallGraph struct {
	Pkg *Package
	// Decls maps a declared function's object to its node.
	Decls map[*types.Func]*FuncNode
	// ByName maps FuncFullName to declared-function nodes.
	ByName map[string]*FuncNode
	// LitNodes maps each function literal to its node.
	LitNodes map[*ast.FuncLit]*FuncNode
	// nodes holds every node in deterministic (source) order.
	nodes []*FuncNode
}

// Nodes returns every node (declared functions and literals) in source
// order.
func (g *CallGraph) Nodes() []*FuncNode { return g.nodes }

// CallGraph returns the package's call graph, built lazily and cached.
func (p *Package) CallGraph() *CallGraph {
	if p.callgraph == nil {
		p.callgraph = BuildCallGraph(p)
	}
	return p.callgraph
}

// BuildCallGraph constructs the call graph of pkg (all files, including
// tests; analyzers filter by position where needed).
func BuildCallGraph(pkg *Package) *CallGraph {
	g := &CallGraph{
		Pkg:      pkg,
		Decls:    map[*types.Func]*FuncNode{},
		ByName:   map[string]*FuncNode{},
		LitNodes: map[*ast.FuncLit]*FuncNode{},
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{Fn: fn, Decl: fd}
			g.Decls[fn] = node
			g.ByName[FuncFullName(fn)] = node
			g.nodes = append(g.nodes, node)
			g.collect(node, fd.Body)
		}
	}
	return g
}

// collect fills node's summary from body, creating separate nodes for
// nested function literals instead of descending into them.
func (g *CallGraph) collect(node *FuncNode, body ast.Node) {
	info := g.Pkg.Info
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			node.Lits = append(node.Lits, n)
			lit := &FuncNode{Lit: n}
			g.LitNodes[n] = lit
			g.nodes = append(g.nodes, lit)
			g.collect(lit, n.Body)
			return false
		case *ast.GoStmt:
			// The spawned call runs in another goroutine, not in this
			// function: record the go statement, walk the function operand
			// (a literal there gets its own node) and the arguments (they
			// ARE evaluated here), but do not record the call as a site.
			node.Gos = append(node.Gos, n)
			ast.Inspect(n.Call.Fun, walk)
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			// An immediately-invoked literal is covered by the literal's
			// own node; don't double it as a dynamic site.
			if _, iife := ast.Unparen(n.Fun).(*ast.FuncLit); iife {
				break
			}
			if site, ok := callSite(info, n); ok {
				node.Calls = append(node.Calls, site)
			}
		case *ast.SendStmt:
			node.ChanOps = append(node.ChanOps, ChanOp{Kind: ChanSend, Node: n, Ch: n.Chan})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				node.ChanOps = append(node.ChanOps, ChanOp{Kind: ChanRecv, Node: n, Ch: n.X})
			}
		case *ast.RangeStmt:
			if isChanType(info.TypeOf(n.X)) {
				node.ChanOps = append(node.ChanOps, ChanOp{Kind: ChanRange, Node: n, Ch: n.X})
			}
		case *ast.SelectStmt:
			node.ChanOps = append(node.ChanOps, ChanOp{Kind: ChanSelect, Node: n})
			// The comm statements (the `case ch <- v:` / `case <-ch:`
			// headers) belong to the select; only walk the clause bodies.
			for _, cl := range n.Body.List {
				cc := cl.(*ast.CommClause)
				for _, s := range cc.Body {
					ast.Inspect(s, walk)
				}
			}
			return false
		}
		return true
	}
	ast.Inspect(body, walk)
}

// callSite classifies one call expression. Conversions and builtins
// return ok=false (they are not calls for the graph's purposes); dynamic
// calls return a site with a nil Callee.
func callSite(info *types.Info, call *ast.CallExpr) (CallSite, bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return CallSite{}, false // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return CallSite{}, false // len/append/make/...
		}
	}
	return CallSite{Call: call, Callee: StaticCallee(info, call)}, true
}

// StaticCallee resolves call's callee to a *types.Func when the target is
// a named function, a concrete method, or an interface method — nil for
// builtins, conversions, and calls through func values.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				return sel.Obj().(*types.Func)
			}
			return nil // method expression/value or field access: dynamic
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified function
		}
	}
	return nil
}

// Propagate computes the least fixpoint of a bottom-up may-property over
// the declared functions of the package: a function has the property when
// local reports it for the function's own node, when it statically calls
// a same-package function that has it, or when external reports it for an
// out-of-package callee (the analyzer's cross-package fact lookup).
// Function literals do not contribute to their enclosing function — a
// closure's body runs when the closure is called, not when it is built.
func (g *CallGraph) Propagate(local func(*FuncNode) bool, external func(*types.Func) bool) map[*types.Func]bool {
	has := map[*types.Func]bool{}
	for _, node := range g.nodes {
		if node.Fn != nil && local(node) {
			has[node.Fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, node := range g.nodes {
			if node.Fn == nil || has[node.Fn] {
				continue
			}
			for _, site := range node.Calls {
				if site.Callee == nil {
					continue
				}
				if has[site.Callee] || (siteIsExternal(g.Pkg, site.Callee) && external != nil && external(site.Callee)) {
					has[node.Fn] = true
					changed = true
					break
				}
			}
		}
	}
	return has
}

// siteIsExternal reports whether fn is declared outside the analyzed
// package.
func siteIsExternal(pkg *Package, fn *types.Func) bool {
	return fn.Pkg() == nil || fn.Pkg() != pkg.Types
}

// FreeVar is one reference inside a subtree to a variable declared
// outside it — the captured state of a closure or go statement.
type FreeVar struct {
	Ident *ast.Ident
	Var   *types.Var
}

// FreeVars returns the variables referenced within root but declared
// outside it, in source order. Package-level variables count (they are
// shared by definition); fields reached through a captured receiver are
// covered by the receiver variable itself.
func FreeVars(info *types.Info, root ast.Node) []FreeVar {
	var out []FreeVar
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() == token.NoPos || v.Pos() < root.Pos() || v.Pos() >= root.End() {
			out = append(out, FreeVar{Ident: id, Var: v})
		}
		return true
	})
	return out
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
