// Package lintcore is a dependency-free re-implementation of the
// golang.org/x/tools/go/analysis model, built only on the standard
// library's go/ast, go/types, and go/importer. The repo's toolchain has
// no module cache, so the x/tools framework cannot be vendored; this
// package provides the two capabilities the itpvet analyzers need:
//
//   - type-checked packages loaded through `go list -export` (load.go),
//     and
//   - per-package analyzer passes with cross-package string facts
//     (run.go).
package lintcore

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named check. Run inspects a single package through its
// Pass and reports diagnostics; it may export facts about the package
// that later passes (on packages that import it) can read.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and namespaces its
	// facts. It must be a valid identifier.
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
	// Target marks packages named by the load patterns (as opposed to
	// dependencies pulled in for facts only).
	Target bool

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
// exempt test files from the simulator's determinism and hot-path rules:
// tests may time things and iterate maps freely.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Facts is the cross-package knowledge store: per package and per
// analyzer, a string key/value map. Values carrying structure are
// JSON-encoded by convention. Facts flow in dependency order — a pass
// sees only facts of packages its package imports (transitively).
type Facts struct {
	m map[string]map[string]map[string]string // pkg -> analyzer -> key -> value
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: map[string]map[string]map[string]string{}} }

func (f *Facts) set(pkg, analyzer, key, value string) {
	byA := f.m[pkg]
	if byA == nil {
		byA = map[string]map[string]string{}
		f.m[pkg] = byA
	}
	byK := byA[analyzer]
	if byK == nil {
		byK = map[string]string{}
		byA[analyzer] = byK
	}
	byK[key] = value
}

func (f *Facts) get(pkg, analyzer, key string) (string, bool) {
	v, ok := f.m[pkg][analyzer][key]
	return v, ok
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	facts  *Facts
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

// ExportFact records a fact about the current package, visible to later
// passes of the same analyzer on importing packages.
func (p *Pass) ExportFact(key, value string) {
	p.facts.set(p.Pkg.ImportPath, p.Analyzer.Name, key, value)
}

// Fact looks up a fact exported by this analyzer for the given package
// (which may be the current package or any analyzed dependency).
func (p *Pass) Fact(pkgPath, key string) (string, bool) {
	return p.facts.get(pkgPath, p.Analyzer.Name, key)
}

// FuncFullName returns the gc-style full name of fn, e.g.
// "(*itpsim/internal/sim.Machine).step" for a pointer-receiver method or
// "(itpsim/internal/tlb.Policy).Victim" for an interface method. This is
// the identifier convention all itpvet facts use.
func FuncFullName(fn *types.Func) string { return fn.FullName() }

// TypeIsMap reports whether t's underlying type is a map.
func TypeIsMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
