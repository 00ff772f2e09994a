// Package lint assembles the itpvet analyzer suite. The individual
// checks live in subpackages; this package owns the suite list and the
// repo-level gate tests (wall-clock allowlist, hot-path/benchmark gate
// coverage, and the clean-tree check). Concurrency has no static check:
// `make race` and `make race-matrix` are its gate (DESIGN.md §15).
package lint

import (
	"itpsim/internal/lint/cycleunits"
	"itpsim/internal/lint/errpropagation"
	"itpsim/internal/lint/hotpathalloc"
	"itpsim/internal/lint/lintcore"
	"itpsim/internal/lint/simdeterminism"
)

// All returns the full itpvet suite, in the order diagnostics are
// attributed.
func All() []*lintcore.Analyzer {
	return []*lintcore.Analyzer{
		simdeterminism.Analyzer,
		hotpathalloc.Analyzer,
		cycleunits.Analyzer,
		errpropagation.Analyzer,
	}
}
