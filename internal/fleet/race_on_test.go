//go:build race

package fleet

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
