package lintcore

import (
	"fmt"
	"sort"
)

// Run executes every analyzer over every loaded package in dependency
// order (Load returns dependencies first, so facts are available when an
// importing package is analyzed). Diagnostics are collected only for
// target packages; dependency packages run for fact extraction alone.
// The returned diagnostics are sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := NewFacts()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		report := func(d Diagnostic) {
			if pkg.Target {
				diags = append(diags, d)
			}
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, facts: facts, report: report}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lintcore: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders diags by position then message.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}
