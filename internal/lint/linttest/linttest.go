// Package linttest runs itpvet analyzers over testdata fixture packages
// and checks their diagnostics against golangorg/x/tools-style `// want`
// comments:
//
//	rand.Intn(4) // want `global math/rand source`
//
// A want comment holds one or more double-quoted or backquoted regular
// expressions; each must match exactly one diagnostic reported on that
// line, and every diagnostic must be matched by a want. Fixture
// packages live under the analyzer's testdata/src/ directory and are
// ordinary in-module packages (so `go list -export` can build them);
// they must compile.
package linttest

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"itpsim/internal/lint/lintcore"
)

// Run loads the fixture packages named by patterns (resolved relative
// to the calling test's directory, e.g. "./testdata/src/a") and checks
// the analyzers' diagnostics against the fixtures' want comments.
func Run(t *testing.T, analyzers []*lintcore.Analyzer, patterns ...string) {
	t.Helper()
	for _, problem := range runImpl(analyzers, patterns...) {
		t.Error(problem)
	}
}

// runImpl does the work of Run, returning problems as strings so the
// harness itself is testable.
func runImpl(analyzers []*lintcore.Analyzer, patterns ...string) []string {
	pkgs, err := lintcore.Load("", patterns...)
	if err != nil {
		return []string{err.Error()}
	}
	diags, err := lintcore.Run(pkgs, analyzers)
	if err != nil {
		return []string{err.Error()}
	}

	wants, problems := collectWants(pkgs)

	// Match each diagnostic against the wants on its line.
	for _, d := range diags {
		key := lineKey{file: d.Pos.Filename, line: d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			problems = append(problems, fmt.Sprintf("%s:%d: unexpected diagnostic: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Message, d.Analyzer))
		}
	}
	var keys []lineKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				problems = append(problems, fmt.Sprintf("%s:%d: no diagnostic matched want %q", k.file, k.line, w.re.String()))
			}
		}
	}
	return problems
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

// collectWants parses `// want` comments from the loaded packages.
func collectWants(pkgs []*lintcore.Package) (map[lineKey][]*want, []string) {
	wants := map[lineKey][]*want{}
	var problems []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "// want ")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					patterns, err := splitWant(rest)
					if err != nil {
						problems = append(problems, fmt.Sprintf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err))
						continue
					}
					for _, p := range patterns {
						re, err := regexp.Compile(p)
						if err != nil {
							problems = append(problems, fmt.Sprintf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err))
							continue
						}
						key := lineKey{file: pos.Filename, line: pos.Line}
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
		}
	}
	return wants, problems
}

// splitWant tokenizes the body of a want comment: a sequence of
// double-quoted or backquoted regexp literals.
func splitWant(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquote in %q", s)
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		case '"':
			end := strings.IndexByte(s[1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("unterminated quote in %q", s)
			}
			out = append(out, s[1:1+end])
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("want patterns must be quoted or backquoted: %q", s)
		}
	}
}
