package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
// regression here means a hot-path, determinism, unit, error, or stat
// violation landed without its justifying directive.
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
// helpers) and the tools' progress timers. Adding a site anywhere means updating this table — and
// justifying it in review.
var wallClockGolden = map[string]int{
	"itpsim/cmd/itpbench": 2, // per-figure progress timer (start + elapsed)
	"itpsim/cmd/itpvet":   4, // -timing/-budget guard: load + per-analyzer (start + elapsed each)
	"itpsim/internal/run": 1, // itpsim/itpsweep export manifest Time field
}

func TestWallClockAllowlist(t *testing.T) {
	got := map[string]int{}
	for _, p := range loadTree(t) {
		if !p.Target {
			continue
		}
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

// benchGateFile is where the steady-state case table lives, relative to
// the module root.
const benchGateFile = "internal/sim/bench_test.go"

// parseSteadyStateCases reads steadyStateCases from benchGateFile
// syntactically and returns each case's hot-path packages by case name.
// Every element must be a keyed literal whose name is a string literal
// and whose hotpath is an identifier naming a []string literal declared
// in the same file.
func parseSteadyStateCases(t *testing.T, root string) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(root, benchGateFile), nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Collect the []string variables and the case table.
	lists := map[string][]string{}
	var table *ast.CompositeLit
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range d.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				if i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				if name.Name == "steadyStateCases" {
					table = cl
					continue
				}
				var elems []string
				for _, e := range cl.Elts {
					lit, ok := e.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						elems = nil
						break
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatalf("%s: bad string literal %s", name.Name, lit.Value)
					}
					elems = append(elems, v)
				}
				if elems != nil {
					lists[name.Name] = elems
				}
			}
		}
	}
	if table == nil {
		t.Fatalf("%s: steadyStateCases not found", benchGateFile)
	}

	cases := map[string][]string{}
	for _, e := range table.Elts {
		cl, ok := e.(*ast.CompositeLit)
		if !ok {
			t.Fatalf("steadyStateCases: element %v is not a composite literal", e)
		}
		var name, list string
		for _, fe := range cl.Elts {
			kv, ok := fe.(*ast.KeyValueExpr)
			if !ok {
				t.Fatalf("steadyStateCases: fields must be keyed, got %v", fe)
			}
			key, _ := kv.Key.(*ast.Ident)
			switch {
			case key == nil:
				t.Fatalf("steadyStateCases: field key %v is not an identifier", kv.Key)
			case key.Name == "name":
				lit, ok := kv.Value.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("steadyStateCases: name must be a string literal, got %v", kv.Value)
				}
				if name, err = strconv.Unquote(lit.Value); err != nil {
					t.Fatal(err)
				}
			case key.Name == "hotpath":
				ident, ok := kv.Value.(*ast.Ident)
				if !ok {
					t.Fatalf("steadyStateCases: hotpath must reference a package-list variable, got %v", kv.Value)
				}
				list = ident.Name
			}
		}
		pkgsOf, ok := lists[list]
		if name == "" || !ok {
			t.Fatalf("steadyStateCases: case %q needs a name and a hotpath naming a []string literal in %s", name, benchGateFile)
		}
		cases[name] = pkgsOf
	}
	return cases
}

// TestHotpathGateCoverage is itpvet's self-check satellite: every package
// holding an //itp:hotpath annotation must be claimed by at least one
// steady-state case that TestSteadyStateAllocFree holds at 0 allocs per
// step, and every claimed package must really carry annotations (no
// stale rows).
func TestHotpathGateCoverage(t *testing.T) {
	root := repoRoot(t)
	cases := parseSteadyStateCases(t, root)
	if len(cases) == 0 {
		t.Fatal("steadyStateCases is empty")
	}

	covered := map[string]bool{}
	for _, pkgList := range cases {
		for _, pkg := range pkgList {
			covered[pkg] = true
		}
	}

	annotated := map[string]bool{}
	for _, p := range loadTree(t) {
		if !p.Target || strings.HasPrefix(p.ImportPath, "itpsim/internal/lint") {
			continue
		}
		for _, d := range p.Directives().All() {
			if d.Name == lintcore.DirHotpath && !p.IsTestFile(d.Pos) {
				annotated[p.ImportPath] = true
				break
			}
		}
	}
	if len(annotated) == 0 {
		t.Fatal("no //itp:hotpath annotations found in the tree")
	}

	var missing, stale []string
	for pkg := range annotated {
		if !covered[pkg] {
			missing = append(missing, pkg)
		}
	}
	for pkg := range covered {
		if !annotated[pkg] {
			stale = append(stale, pkg)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, pkg := range missing {
		t.Error(fmt.Errorf("package %s has //itp:hotpath functions but no steady-state case in %s claims it", pkg, benchGateFile))
	}
	for _, pkg := range stale {
		t.Error(fmt.Errorf("steadyStateCases claims %s, which has no //itp:hotpath annotations", pkg))
	}
}

// ownershipManifest is the exact census of concurrency escape hatches:
// every //itp:owner (machineown) and //itp:daemon (goroutinelife) site in
// non-test files, per package. These directives suppress an analyzer, so
// each one is a reviewed claim about the code — adding or removing a site
// means updating this table, visibly.
var ownershipManifest = map[string]map[string]int{
	"itpsim/internal/workload": {
		lintcore.DirOwner: 3, // decode-ahead ring: producer spawn + batches send + free send
	},
	"itpsim/internal/harness": {
		lintcore.DirDaemon: 1, // attempt body abandoned after KillGrace by design
	},
	"itpsim/internal/run": {
		lintcore.DirDaemon: 1, // itpsim/itpsweep pprof/expvar debug server
	},
}

// TestOwnershipAnnotationAudit keeps the concurrency escape hatches
// reviewed: every //itp:owner and //itp:daemon directive must carry a
// justification (the directive argument) and must be accounted for in
// ownershipManifest; stale manifest rows fail too.
func TestOwnershipAnnotationAudit(t *testing.T) {
	audited := map[string]bool{lintcore.DirOwner: true, lintcore.DirDaemon: true}

	got := map[string]map[string]int{}
	for _, p := range loadTree(t) {
		if !p.Target || strings.HasPrefix(p.ImportPath, "itpsim/internal/lint") {
			continue
		}
		for _, d := range p.Directives().All() {
			if !audited[d.Name] || p.IsTestFile(d.Pos) {
				continue
			}
			if strings.TrimSpace(d.Arg) == "" {
				pos := p.Fset.Position(d.Pos)
				t.Errorf("%s:%d: //itp:%s without a justification; say why the analyzer is wrong here", pos.Filename, pos.Line, d.Name)
			}
			if got[p.ImportPath] == nil {
				got[p.ImportPath] = map[string]int{}
			}
			got[p.ImportPath][d.Name]++
		}
	}

	for pkg, wantDirs := range ownershipManifest {
		for dir, want := range wantDirs {
			if got[pkg][dir] != want {
				t.Errorf("%s: %d //itp:%s sites, manifest says %d", pkg, got[pkg][dir], dir, want)
			}
		}
	}
	for pkg, gotDirs := range got {
		for dir, n := range gotDirs {
			if ownershipManifest[pkg][dir] == 0 {
				t.Errorf("%s: %d //itp:%s sites outside ownershipManifest; escape hatches must be enumerated there", pkg, n, dir)
			}
		}
	}
}
