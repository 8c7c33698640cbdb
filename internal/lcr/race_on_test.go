//go:build race

package lcr

// raceEnabled reports whether the race detector is compiled in. Under it
// sync.Pool drops a random share of Puts, so a pooled walk is not
// allocation-free.
const raceEnabled = true
