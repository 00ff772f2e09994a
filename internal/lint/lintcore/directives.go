package lintcore

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //itp: directive vocabulary. A directive comment governs its own
// source line and the line below it, so both placements work:
//
//	//itp:wallclock — manifest timestamp
//	now := time.Now()
//
// and
//
//	now := time.Now() //itp:wallclock — manifest timestamp
const (
	// DirWallclock permits a time.Now/Since/Until call site
	// (simdeterminism).
	DirWallclock = "wallclock"
	// DirDeterministic permits a map range whose result provably does not
	// depend on iteration order (simdeterminism).
	DirDeterministic = "deterministic"
	// DirUnitcast permits an explicit Cycle<->Instr conversion
	// (cycleunits).
	DirUnitcast = "unitcast"
	// DirIgnoreErr permits a discarded error (errpropagation).
	DirIgnoreErr = "ignore-err"
)

// Directive is one //itp: comment occurrence.
type Directive struct {
	Name string // e.g. "wallclock"
	Arg  string // free text after the name (justification prose)
	Pos  token.Pos
}

// Directives indexes every //itp: comment of a package by file and line.
type Directives struct {
	fset *token.FileSet
	// byLine maps filename -> covered line -> directive names present.
	byLine map[string]map[int][]string
	all    []Directive
}

// CollectDirectives scans the comments of files for //itp: directives.
func CollectDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//itp:")
				if !ok {
					continue
				}
				name, arg, _ := strings.Cut(text, " ")
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				d.all = append(d.all, Directive{Name: name, Arg: strings.TrimSpace(arg), Pos: c.Pos()})
				pos := fset.Position(c.Pos())
				lines := d.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					d.byLine[pos.Filename] = lines
				}
				// A directive governs its own line and the next one.
				lines[pos.Line] = append(lines[pos.Line], name)
				lines[pos.Line+1] = append(lines[pos.Line+1], name)
			}
		}
	}
	return d
}

// All returns every directive in the package (file order).
func (d *Directives) All() []Directive { return d.all }

// Covers reports whether a directive of the given name governs the line
// holding pos.
func (d *Directives) Covers(pos token.Pos, name string) bool {
	p := d.fset.Position(pos)
	for _, n := range d.byLine[p.Filename][p.Line] {
		if n == name {
			return true
		}
	}
	return false
}
