package itpsim

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// datedBaselineRe matches a committed benchmark baseline name.
var datedBaselineRe = regexp.MustCompile(`BENCH_[0-9]{8}\.json`)

// TestNamedBaselinesCommitted fails when the Makefile or a CI workflow
// names a dated benchmark baseline that is not in the tree: a compare
// step pointed at a missing file is a gate that can never fire. .gitignore
// matches BENCH_*.json, so a file recorded locally but never committed
// does not count; presence is decided by git when the checkout has it.
func TestNamedBaselinesCommitted(t *testing.T) {
	files := []string{"Makefile"}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, workflows...)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range datedBaselineRe.FindAllString(string(data), -1) {
			if !committed(name) {
				t.Errorf("%s names %s, which is not in the tree", f, name)
			}
		}
	}
}

// committed reports whether path is tracked by git, falling back to its
// existence on disk outside a git checkout.
func committed(path string) bool {
	if _, err := os.Stat(".git"); err == nil {
		if git, err := exec.LookPath("git"); err == nil {
			return exec.Command(git, "ls-files", "--error-unmatch", path).Run() == nil
		}
	}
	_, err := os.Stat(path)
	return err == nil
}
