//go:build !race

package fleet

// raceEnabled reports whether the race detector is active; allocation
// gates skip under -race, where instrumentation skews the counts.
const raceEnabled = false
