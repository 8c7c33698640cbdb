//go:build !race

package pattern

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
