package lintcore

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //itp: directive vocabulary. A directive comment governs its own
// source line and the line below it, so both placements work:
//
//	//itp:cold — first-touch allocation
//	n := pt.newNode()
//
// and
//
//	m.publishDiag() //itp:cold — 64K-retire diagnostics
//
// When a directive's covered line is the first line of a statement, the
// suppression extends over the whole statement (so one //itp:cold above
// an if-block covers the block's body).
const (
	// DirHotpath marks a function or interface method as part of the
	// allocation-free hot path; hotpathalloc checks its body and permits
	// calls to it from other hot-path functions.
	DirHotpath = "hotpath"
	// DirCold marks an amortized or terminal region inside a hot-path
	// function; hotpathalloc skips it entirely.
	DirCold = "cold"
	// DirNonalloc marks a reviewed dynamic call or expression that does
	// not allocate; hotpathalloc skips it.
	DirNonalloc = "nonalloc"
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
	Name string // e.g. "hotpath"
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

// FuncAnnotated reports whether decl carries the named directive: either
// in its doc comment or on/above its declaration line.
func FuncAnnotated(d *Directives, decl *ast.FuncDecl, name string) bool {
	if docHasDirective(decl.Doc, name) {
		return true
	}
	return d.Covers(decl.Pos(), name)
}

// FieldAnnotated reports whether an interface-method field carries the
// named directive (doc comment, trailing comment, or covering line).
func FieldAnnotated(d *Directives, field *ast.Field, name string) bool {
	if docHasDirective(field.Doc, name) || docHasDirective(field.Comment, name) {
		return true
	}
	return d.Covers(field.Pos(), name)
}

func docHasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//itp:"); ok {
			n, _, _ := strings.Cut(rest, " ")
			if strings.TrimSpace(n) == name {
				return true
			}
		}
	}
	return false
}
