// Package lint assembles the itpvet analyzer suite. The individual
// checks live in subpackages; this package owns the suite list and the
// repo-level gate tests (wall-clock allowlist, hot-path/benchmark gate
// coverage, and the clean-tree check).
package lint

import (
	"itpsim/internal/lint/cycleunits"
	"itpsim/internal/lint/errpropagation"
	"itpsim/internal/lint/goroutinelife"
	"itpsim/internal/lint/hotpathalloc"
	"itpsim/internal/lint/lintcore"
	"itpsim/internal/lint/lockscope"
	"itpsim/internal/lint/machineown"
	"itpsim/internal/lint/simdeterminism"
)

// All returns the full itpvet suite, in the order diagnostics are
// attributed: the four intra-procedural checks, then the three
// interprocedural concurrency checks built on the lintcore call graph.
func All() []*lintcore.Analyzer {
	return []*lintcore.Analyzer{
		simdeterminism.Analyzer,
		hotpathalloc.Analyzer,
		cycleunits.Analyzer,
		errpropagation.Analyzer,
		machineown.Analyzer,
		goroutinelife.Analyzer,
		lockscope.Analyzer,
	}
}
