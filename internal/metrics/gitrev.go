package metrics

import (
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
)

// GitDescribe returns the VCS revision for export manifests, trying in
// order:
//
//  1. the revision the Go toolchain embedded at build time
//     (vcs.revision, with a "-dirty" suffix when the worktree was
//     modified) — present in installed binaries but NOT in `go test` or
//     `go run` builds;
//  2. `git describe --always --dirty` against the working tree — the
//     path test binaries and `go run` tools actually take;
//  3. the same with GIT_DIR/GIT_WORK_TREE cleared, when a stale
//     environment (hook contexts, submodule operations) pointed git away
//     from the tree the process runs in;
//
// and "unknown" when all three fail.
func GitDescribe() string {
	if rev := buildInfoRevision(); rev != "" {
		return rev
	}
	if rev, err := gitDescribeRunner(false); err == nil && rev != "" {
		return rev
	}
	if os.Getenv("GIT_DIR") != "" || os.Getenv("GIT_WORK_TREE") != "" {
		if rev, err := gitDescribeRunner(true); err == nil && rev != "" {
			return rev
		}
	}
	return "unknown"
}

// buildInfoRevision extracts the toolchain-embedded revision, or "".
func buildInfoRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// gitDescribeRunner invokes git for the describe fallback; tests stub it
// to exercise the chain without a git binary or repository.
var gitDescribeRunner = runGitDescribe

func runGitDescribe(clearGitEnv bool) (string, error) {
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	if clearGitEnv {
		env := make([]string, 0, len(os.Environ()))
		for _, kv := range os.Environ() {
			if strings.HasPrefix(kv, "GIT_DIR=") || strings.HasPrefix(kv, "GIT_WORK_TREE=") {
				continue
			}
			env = append(env, kv)
		}
		cmd.Env = env
	}
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}
