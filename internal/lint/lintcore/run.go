package lintcore

import (
	"fmt"
	"sort"
)

// Run executes every analyzer over every loaded package. The returned
// diagnostics are sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, report: report}
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
