//go:build race

package lscr

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of Puts, so a pooled search is not
// allocation-free.
const raceEnabled = true
