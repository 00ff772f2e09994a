// Package mainpkg is the lintcore fixture target; it imports deppkg, so
// loading it needs the dependency's export data.
package mainpkg

import "itpsim/internal/lint/lintcore/testdata/src/deppkg"

// Use consumes the dependency.
func Use() int {
	//itp:ignore-err fixture directive
	return deppkg.Exported()
}

// BadLocal is flagged by the test analyzer.
func BadLocal() int { return 3 }
