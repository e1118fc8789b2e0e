//go:build race

package expr

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts on purpose.
const raceEnabled = true
