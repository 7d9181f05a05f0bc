//go:build race

package hashmap

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
