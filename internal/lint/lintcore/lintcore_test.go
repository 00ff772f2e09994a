package lintcore

import (
	"go/ast"
	"strings"
	"testing"
)

const (
	depPath  = "itpsim/internal/lint/lintcore/testdata/src/deppkg"
	mainPath = "itpsim/internal/lint/lintcore/testdata/src/mainpkg"
)

// badFuncAnalyzer flags functions named Bad*.
var badFuncAnalyzer = &Analyzer{
	Name: "badfunc",
	Doc:  "flag Bad* functions (lintcore self-test)",
	Run: func(pass *Pass) error {
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && strings.HasPrefix(fd.Name.Name, "Bad") {
					pass.Reportf(fd.Name.Pos(), "bad function %s", fd.Name.Name)
				}
			}
		}
		return nil
	},
}

// TestLoadAndRun: Load returns only the packages the patterns name,
// type-checked against their dependencies' export data, and Run reports
// on each of them.
func TestLoadAndRun(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/mainpkg")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != mainPath {
		t.Fatalf("Load returned %d packages, want only %s", len(pkgs), mainPath)
	}
	if pkgs[0].Types.Imports()[0].Path() != depPath {
		t.Errorf("mainpkg imports %v, want %s", pkgs[0].Types.Imports(), depPath)
	}
	diags, err := Run(pkgs, []*Analyzer{badFuncAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	// deppkg.BadThing is not loaded, so BadLocal is the only finding.
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "BadLocal") {
		t.Fatalf("diagnostics = %v, want exactly BadLocal", diags)
	}
	if s := diags[0].String(); !strings.Contains(s, "mainpkg.go") || !strings.Contains(s, "[badfunc]") {
		t.Errorf("Diagnostic.String() = %q", s)
	}
}

func TestDirectives(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/mainpkg")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	dirs := pkg.Directives()
	if all := dirs.All(); len(all) != 1 || all[0].Name != DirIgnoreErr || all[0].Arg != "fixture directive" {
		t.Fatalf("directives = %v, want one ignore-err", all)
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Use" {
				continue
			}
			ret := fd.Body.List[len(fd.Body.List)-1]
			if !dirs.Covers(ret.Pos(), DirIgnoreErr) {
				t.Error("//itp:ignore-err does not cover the following line")
			}
			if dirs.Covers(ret.Pos(), DirWallclock) {
				t.Error("Covers matched a directive that is not there")
			}
			if dirs.Covers(fd.Pos(), DirIgnoreErr) {
				t.Error("//itp:ignore-err covers the line above it")
			}
		}
	}
	if pkg.IsTestFile(pkg.Files[0].Pos()) {
		t.Error("mainpkg.go misdetected as a test file")
	}
}

func TestFuncFullName(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/mainpkg")
	if err != nil {
		t.Fatal(err)
	}
	fn := pkgs[0].Types.Scope().Lookup("Use")
	if got := fn.(interface{ FullName() string }).FullName(); got != mainPath+".Use" {
		t.Errorf("FullName = %q", got)
	}
}
