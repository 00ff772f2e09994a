package lint

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"itpsim/internal/lint/lintcore"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// The full-tree load is shared by every gate test in this package: one
// `go list` walk plus one type-check of the module.
var (
	loadOnce sync.Once
	loadPkgs []*lintcore.Package
	loadErr  error
)

func loadTree(t *testing.T) []*lintcore.Package {
	t.Helper()
	root := repoRoot(t)
	loadOnce.Do(func() {
		loadPkgs, loadErr = lintcore.Load(root, "./...")
	})
	if loadErr != nil {
		t.Fatalf("loading module tree: %v", loadErr)
	}
	return loadPkgs
}

// TestItpvetCleanTree pins the invariant the whole suite exists to hold:
// the shipped tree produces zero diagnostics from every analyzer. A
// regression here means a determinism, unit or dropped-error violation
// landed without its justifying directive.
func TestItpvetCleanTree(t *testing.T) {
	pkgs := loadTree(t)
	diags, err := lintcore.Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// wallClockGolden is the exact per-package census of //itp:wallclock
// sites. The simulator core must have none: the only permitted wall-clock
// reads are the export-manifest timestamp (internal/run's shared CLI
// helpers) and itpbench's progress timer. Adding a site anywhere means
// updating this table — and justifying it in review.
var wallClockGolden = map[string]int{
	"itpsim/cmd/itpbench": 2, // per-figure progress timer (start + elapsed)
	"itpsim/internal/run": 1, // itpsim/itpsweep export manifest Time field
}

func TestWallClockAllowlist(t *testing.T) {
	got := map[string]int{}
	for _, p := range loadTree(t) {
		for _, d := range p.Directives().All() {
			if d.Name != lintcore.DirWallclock || p.IsTestFile(d.Pos) {
				continue
			}
			got[p.ImportPath]++
		}
	}
	for pkg, want := range wallClockGolden {
		if got[pkg] != want {
			t.Errorf("%s: %d //itp:wallclock sites, want %d", pkg, got[pkg], want)
		}
	}
	for pkg, n := range got {
		if _, ok := wallClockGolden[pkg]; !ok {
			t.Errorf("%s: %d //itp:wallclock sites outside the allowlist; the simulator core must not read the wall clock", pkg, n)
		}
	}
}
