//go:build !race

package skiplist

// raceEnabled reports whether the race detector is compiled in. Alloc
// pins are skipped under -race (instrumentation allocates).
const raceEnabled = false
