//go:build !race

package harness

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of what is put.
const raceEnabled = false
