package lintcore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matched by patterns. It shells out to
// `go list -export -deps`, which compiles export data for every package
// in the closure; the matched packages are then checked from source (so
// analyzers see syntax), importing their dependencies from the export
// data. dir is the working directory for pattern resolution ("" =
// current directory).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error"}, patterns...)
	out, err := runGoList(dir, args)
	if err != nil {
		return nil, err
	}

	var targets []listPkg
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lintcore: parsing go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	// One importer serves the whole load, so dependency type identities
	// agree across packages.
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, p := range targets {
		if p.Error != nil {
			return nil, fmt.Errorf("lintcore: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := typecheckPackage(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func runGoList(dir string, args []string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lintcore: go %v: %w\n%s", args, err, stderr.String())
	}
	return out, nil
}

// typecheckPackage parses and type-checks one package from source,
// importing dependencies through imp.
func typecheckPackage(fset *token.FileSet, importPath string, files []string, imp types.Importer) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lintcore: %s: %w", importPath, err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		if firstErr != nil {
			err = firstErr
		}
		return nil, fmt.Errorf("lintcore: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Fset:       fset,
		Files:      syntax,
		Types:      tpkg,
		Info:       info,
	}, nil
}
