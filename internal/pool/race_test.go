//go:build race

package pool

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// quarter of its Puts at random.
const raceEnabled = true
