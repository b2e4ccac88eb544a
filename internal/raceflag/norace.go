//go:build !race

// Package raceflag tells tests whether they run under the race detector.
// Allocation pins (testing.AllocsPerRun) skip there: the detector makes
// sync.Pool drop a quarter of its Puts on purpose and adds allocations of its
// own, so a pooled path cannot be pinned to an exact count under -race.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
