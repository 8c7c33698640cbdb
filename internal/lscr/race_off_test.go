//go:build !race

package lscr

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
