// Command itpvet runs the itpsim static-analysis suite (internal/lint):
//
//	itpvet [packages]   # defaults to ./...
//
// It loads the named packages with `go list -export`, prints one line
// per diagnostic, and exits 1 if there are any or if loading fails.
package main

import (
	"fmt"
	"os"

	"itpsim/internal/lint"
	"itpsim/internal/lint/lintcore"
)

func main() {
	pkgs, err := lintcore.Load("", os.Args[1:]...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itpvet:", err)
		os.Exit(1)
	}
	diags, err := lintcore.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "itpvet:", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
