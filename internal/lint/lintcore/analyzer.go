// Package lintcore is a dependency-free re-implementation of the
// golang.org/x/tools/go/analysis model, built only on the standard
// library's go/ast, go/types, and go/importer. The repo's toolchain has
// no module cache, so the x/tools framework cannot be vendored; this
// package provides the two capabilities the itpvet analyzers need:
//
//   - type-checked packages loaded through `go list -export` (load.go),
//     and
//   - per-package analyzer passes (run.go). Every check is local to one
//     package, so passes share nothing.
package lintcore

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check. Run inspects a single package through its
// Pass and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
	Name string
	// Doc is the one-paragraph description of the check.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	directives *Directives
}

// Directives returns the package's //itp: directive index, built lazily.
func (p *Package) Directives() *Directives {
	if p.directives == nil {
		p.directives = CollectDirectives(p.Fset, p.Files)
	}
	return p.directives
}

// IsTestFile reports whether pos lies in a _test.go file. The analyzers
// exempt test files from the simulator's determinism and unit rules:
// tests may time things and iterate maps freely.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FuncFullName returns the gc-style full name of fn, e.g.
// "(*itpsim/internal/sim.Machine).step" for a pointer-receiver method or
// "(itpsim/internal/tlb.Policy).Victim" for an interface method.
// errpropagation names its watched functions this way.
func FuncFullName(fn *types.Func) string { return fn.FullName() }

// TypeIsMap reports whether t's underlying type is a map.
func TypeIsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
