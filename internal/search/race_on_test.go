//go:build race

package search

// raceEnabled reports a -race build, whose sync.Pool drops Puts at random:
// allocation pins skip there.
const raceEnabled = true
