// Package lint assembles the itpvet analyzer suite. The individual
// checks live in subpackages; this package owns the suite list and the
// repo-level gate tests (the wall-clock allowlist and the clean-tree
// check). Concurrency has no static check: `make race` and
// `make race-matrix` are its gate, and hot-path allocation has none
// either: internal/sim's TestSteadyStateAllocFree is its gate
// (DESIGN.md §15).
package lint

import (
	"itpsim/internal/lint/cycleunits"
	"itpsim/internal/lint/errpropagation"
	"itpsim/internal/lint/lintcore"
	"itpsim/internal/lint/simdeterminism"
)

// All returns the full itpvet suite, in the order diagnostics are
// attributed.
func All() []*lintcore.Analyzer {
	return []*lintcore.Analyzer{
		simdeterminism.Analyzer,
		cycleunits.Analyzer,
		errpropagation.Analyzer,
	}
}
