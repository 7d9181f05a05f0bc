//go:build !race

package hashmap

// raceEnabled reports whether the race detector is compiled in. Alloc
// pins are skipped under -race (instrumentation allocates).
const raceEnabled = false
