//go:build race

package tree23

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
