package metrics

import (
	"errors"
	"strings"
	"testing"
)

// stubGit swaps the describe runner for the test's lifetime, recording
// each call's clearGitEnv argument.
func stubGit(t *testing.T, fn func(clear bool) (string, error)) *[]bool {
	t.Helper()
	var calls []bool
	old := gitDescribeRunner
	gitDescribeRunner = func(clear bool) (string, error) {
		calls = append(calls, clear)
		return fn(clear)
	}
	t.Cleanup(func() { gitDescribeRunner = old })
	return &calls
}

// TestGitDescribeFallsBackToGit: test binaries carry no toolchain VCS
// stamp, so GitDescribe must reach the git-describe fallback and return
// its output instead of "unknown".
func TestGitDescribeFallsBackToGit(t *testing.T) {
	if rev := buildInfoRevision(); rev != "" {
		t.Skipf("test binary unexpectedly has a VCS stamp (%s); fallback not reachable", rev)
	}
	calls := stubGit(t, func(bool) (string, error) { return "abc1234-dirty", nil })
	if got := GitDescribe(); got != "abc1234-dirty" {
		t.Errorf("GitDescribe() = %q, want the stub's describe output", got)
	}
	if len(*calls) != 1 || (*calls)[0] {
		t.Errorf("runner calls %v, want one call without env clearing", *calls)
	}
}

// TestGitDescribeRetriesWithClearedGitDir: when the plain invocation
// fails and a GIT_DIR points git elsewhere, GitDescribe retries with the
// git environment cleared.
func TestGitDescribeRetriesWithClearedGitDir(t *testing.T) {
	if rev := buildInfoRevision(); rev != "" {
		t.Skipf("test binary unexpectedly has a VCS stamp (%s)", rev)
	}
	t.Setenv("GIT_DIR", "/nonexistent/elsewhere/.git")
	calls := stubGit(t, func(clear bool) (string, error) {
		if !clear {
			return "", errors.New("fatal: not a git repository")
		}
		return "def5678", nil
	})
	if got := GitDescribe(); got != "def5678" {
		t.Errorf("GitDescribe() = %q, want the cleared-env retry's output", got)
	}
	if want := []bool{false, true}; len(*calls) != 2 || (*calls)[0] != want[0] || (*calls)[1] != want[1] {
		t.Errorf("runner calls %v, want %v", *calls, want)
	}
}

// TestGitDescribeUnknown: with no VCS stamp, a failing git, and no GIT_DIR
// to clear, the manifest honestly says unknown.
func TestGitDescribeUnknown(t *testing.T) {
	if rev := buildInfoRevision(); rev != "" {
		t.Skipf("test binary unexpectedly has a VCS stamp (%s)", rev)
	}
	t.Setenv("GIT_DIR", "")
	t.Setenv("GIT_WORK_TREE", "")
	calls := stubGit(t, func(bool) (string, error) { return "", errors.New("no git") })
	if got := GitDescribe(); got != "unknown" {
		t.Errorf("GitDescribe() = %q, want unknown", got)
	}
	if len(*calls) != 1 {
		t.Errorf("runner called %d times, want 1 (empty GIT_DIR must not trigger the retry)", len(*calls))
	}
}

// TestGitDescribeReal exercises the unstubbed runner in this repository:
// the revision must look like a git object name, not "unknown".
func TestGitDescribeReal(t *testing.T) {
	rev, err := runGitDescribe(false)
	if err != nil {
		t.Skipf("git unavailable: %v", err)
	}
	if rev == "" || strings.ContainsAny(rev, " \n") {
		t.Errorf("runGitDescribe returned %q, want a single token", rev)
	}
	if got := GitDescribe(); got == "unknown" {
		t.Errorf("GitDescribe() = unknown inside a git worktree with git available")
	}
}

// TestRunGitDescribeClearsGitDir exercises the unstubbed cleared-
// environment retry: with GIT_DIR pointing at an empty directory the
// plain describe fails, and the retry names the revision a describe
// without GIT_DIR names. Where git or the repository is missing it
// still runs both, then skips the comparison.
func TestRunGitDescribeClearsGitDir(t *testing.T) {
	want, wantErr := runGitDescribe(false)
	t.Setenv("GIT_DIR", t.TempDir())
	if rev, err := runGitDescribe(false); err == nil {
		t.Errorf("describe against an empty GIT_DIR returned %q, want an error", rev)
	}
	got, err := runGitDescribe(true)
	if wantErr != nil {
		t.Skipf("git describe unavailable: %v", wantErr)
	}
	if err != nil || got != want {
		t.Errorf("describe with GIT_DIR cleared returned %q, %v; want %q", got, err, want)
	}
}
