//go:build race

package pattern

// raceEnabled reports whether the race detector is compiled in; it
// instruments memory accesses and allocates, so the allocation budget
// skips under it.
const raceEnabled = true
