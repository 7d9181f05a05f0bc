//go:build race

package skiplist

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
