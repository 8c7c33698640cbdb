//go:build race

package graph

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates, so allocation-budget tests skip under it.
const raceEnabled = true
