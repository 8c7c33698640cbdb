//go:build !race

package lcr

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
