package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted xs by nearest rank
// (0 for an empty slice).
func quantile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts xs in place and returns the middle value (the mean of
// the middle two for an even count; 0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedRSSMiB is the resident set once garbage is collected and
// freed pages are returned: what the structure, the server and the
// runtime hold on to. The high-water mark would not do: with GOGC the
// heap swings between one and two times the live size, and where in
// that swing a run ends is luck.
func retainedRSSMiB() float64 {
	debug.FreeOSMemory() // forces a collection, then returns what it freed
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, resident float64
		if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
			return resident * float64(os.Getpagesize()) / (1 << 20)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}
