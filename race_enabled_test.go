//go:build race

package itpsim

import "testing"

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation invalidates wall-clock perf budgets.
const raceEnabled = true

// TestRaceTagPlumbing pins the race arm of the build-tag pair: this file
// is only compiled under -race, so if the test runs at all the constant
// must say so. Together with its !race twin it catches a mis-edited
// constant or a broken //go:build line in either file — `go test -race`
// exercises this arm (make race in CI's check job, and CI's
// race-matrix job), plain `go test` the other.
func TestRaceTagPlumbing(t *testing.T) {
	if !raceEnabled {
		t.Fatal("built with -race but raceEnabled = false; build-tag plumbing is broken")
	}
}
