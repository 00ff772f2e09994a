package lintcore

import (
	"go/token"
	"go/types"
	"testing"
)

func TestTypeIsMap(t *testing.T) {
	m := types.NewMap(types.Typ[types.Int], types.Typ[types.Int])
	if !TypeIsMap(m) {
		t.Error("map not detected")
	}
	named := types.NewNamed(types.NewTypeName(token.NoPos, nil, "M", nil), m, nil)
	if !TypeIsMap(named) {
		t.Error("named map not detected")
	}
	if TypeIsMap(types.Typ[types.Int]) || TypeIsMap(nil) {
		t.Error("non-map misdetected")
	}
}

func TestFuncFullNameHelper(t *testing.T) {
	pkg := types.NewPackage("itpsim/internal/x", "x")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	fn := types.NewFunc(token.NoPos, pkg, "F", sig)
	if got := FuncFullName(fn); got != "itpsim/internal/x.F" {
		t.Errorf("FuncFullName = %q", got)
	}
}

func TestSortDiagnostics(t *testing.T) {
	diags := []Diagnostic{
		{Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}, Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 2, Column: 1}, Message: "m"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 2}, Message: "z"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 2}, Message: "a"},
		{Pos: token.Position{Filename: "a.go", Line: 1, Column: 1}, Message: "m"},
	}
	sortDiagnostics(diags)
	order := func(i int) string { return diags[i].Pos.Filename + diags[i].Message }
	want := []string{"a.gom", "a.goa", "a.goz", "a.gom", "b.gom"}
	for i, w := range want {
		if order(i) != w {
			t.Fatalf("order[%d] = %v, want %v (all: %v)", i, order(i), w, diags)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("", "./testdata/src/enoent"); err == nil {
		t.Error("nonexistent pattern not rejected")
	}
	if _, err := runGoList("", []string{"list", "-json", "./no/such/dir"}); err == nil {
		t.Error("runGoList error not surfaced")
	}
}
