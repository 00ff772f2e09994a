package lintcore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

const (
	depPath  = "itpsim/internal/lint/lintcore/testdata/src/deppkg"
	mainPath = "itpsim/internal/lint/lintcore/testdata/src/mainpkg"
)

// badFuncAnalyzer flags functions named Bad* and exports every function
// name as a fact, so both reporting and fact flow are observable.
func badFuncAnalyzer(sawDepFact *bool) *Analyzer {
	return &Analyzer{
		Name: "badfunc",
		Doc:  "flag Bad* functions (lintcore self-test)",
		Run: func(pass *Pass) error {
			if pass.Pkg.ImportPath == mainPath {
				if _, ok := pass.Fact(depPath, "BadThing"); ok {
					*sawDepFact = true
				}
			}
			for _, file := range pass.Pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok {
						continue
					}
					pass.ExportFact(fd.Name.Name, "seen")
					if strings.HasPrefix(fd.Name.Name, "Bad") {
						pass.Reportf(fd.Name.Pos(), "bad function %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
}

func TestLoadAndRun(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/mainpkg")
	if err != nil {
		t.Fatal(err)
	}
	var gotDep, gotMain bool
	for _, p := range pkgs {
		switch p.ImportPath {
		case depPath:
			gotDep = true
			if p.Target {
				t.Error("deppkg wrongly marked Target")
			}
		case mainPath:
			gotMain = true
			if !p.Target {
				t.Error("mainpkg not marked Target")
			}
		}
	}
	if !gotDep || !gotMain {
		t.Fatalf("load missed packages: dep=%v main=%v", gotDep, gotMain)
	}

	var sawDepFact bool
	diags, err := Run(pkgs, []*Analyzer{badFuncAnalyzer(&sawDepFact)})
	if err != nil {
		t.Fatal(err)
	}
	if !sawDepFact {
		t.Error("fact exported by deppkg not visible in mainpkg pass")
	}
	// Only the target package's diagnostics survive: BadLocal yes,
	// deppkg.BadThing no.
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
	var pkg *Package
	for _, p := range pkgs {
		if p.ImportPath == mainPath {
			pkg = p
		}
	}
	dirs := pkg.Directives()
	if len(dirs.All()) != 2 {
		t.Fatalf("directives = %v, want 2", dirs.All())
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			annotated := FuncAnnotated(dirs, fd, DirHotpath)
			if want := fd.Name.Name == "Use"; annotated != want {
				t.Errorf("FuncAnnotated(%s, hotpath) = %v, want %v", fd.Name.Name, annotated, want)
			}
			if fd.Name.Name == "Use" {
				ret := fd.Body.List[len(fd.Body.List)-1]
				if !dirs.Covers(ret.Pos(), DirCold) {
					t.Error("//itp:cold does not cover the following line")
				}
				if dirs.Covers(ret.Pos(), DirWallclock) {
					t.Error("Covers matched a directive that is not there")
				}
			}
		}
	}
	if pkg.IsTestFile(pkg.Files[0].Pos()) {
		t.Error("mainpkg.go misdetected as a test file")
	}
}

// TestFieldAnnotated checks the three placements an interface-method
// directive may take: doc comment, trailing comment, and a covering line.
func TestFieldAnnotated(t *testing.T) {
	const src = `package p

type I interface {
	//itp:hotpath
	Doc()
	Trailing() //itp:nonalloc

	Plain()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	dirs := CollectDirectives(fset, []*ast.File{f})
	iface := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec).Type.(*ast.InterfaceType)
	want := map[string][2]bool{ // {hotpath, nonalloc}
		"Doc":      {true, false},
		"Trailing": {false, true},
		"Plain":    {false, false},
	}
	for _, field := range iface.Methods.List {
		name := field.Names[0].Name
		got := [2]bool{FieldAnnotated(dirs, field, DirHotpath), FieldAnnotated(dirs, field, DirNonalloc)}
		if got != want[name] {
			t.Errorf("%s: {hotpath, nonalloc} = %v, want %v", name, got, want[name])
		}
	}
}

func TestFuncFullName(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/mainpkg")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if p.ImportPath != mainPath {
			continue
		}
		fn := p.Types.Scope().Lookup("Use")
		if got := fn.(interface{ FullName() string }).FullName(); got != mainPath+".Use" {
			t.Errorf("FullName = %q", got)
		}
	}
}
