package sketch

import "math"

// ReferenceCountMin is the seed-era count-min over 64-bit keys: a rows ×
// cols [][]uint64 counter matrix where each update increments one counter
// per row (seeded FNV-1a row hashes, `%` column indexing) and each query
// returns the row minimum, an overestimate of the true count. It is
// retained verbatim (plus the saturation guard) as the behavioral oracle:
// differential tests bound TurboCountMin against it, the benchmark suite
// measures the turbo layout against its pointer-chasing one, and the
// sketchacc experiment plots it as the classic baseline. Not for
// per-packet paths.
type ReferenceCountMin struct {
	rows, cols int
	counts     [][]uint64
	// Updates counts Add calls since the last Reset.
	Updates uint64
}

// NewReferenceCountMin builds a reference sketch with the given
// geometry.
func NewReferenceCountMin(rows, cols int) *ReferenceCountMin {
	if rows <= 0 || cols <= 0 {
		panic("sketch: invalid reference count-min geometry")
	}
	cm := &ReferenceCountMin{rows: rows, cols: cols, counts: make([][]uint64, rows)}
	for i := range cm.counts {
		cm.counts[i] = make([]uint64, cols)
	}
	return cm
}

// Add increments key's count by delta and returns the new estimate.
// Counters saturate at MaxUint64 instead of wrapping: a wrapped counter
// would silently become the row minimum and poison every estimate of
// every key sharing it.
func (cm *ReferenceCountMin) Add(key uint64, delta uint64) uint64 {
	cm.Updates++
	est := uint64(math.MaxUint64)
	for r := 0; r < cm.rows; r++ {
		c := hash64(uint64(r)+1, key) % uint64(cm.cols)
		v := cm.counts[r][c] + delta
		if v < cm.counts[r][c] {
			v = math.MaxUint64
		}
		cm.counts[r][c] = v
		if v < est {
			est = v
		}
	}
	return est
}

// Estimate returns the (over-)estimated count of key.
func (cm *ReferenceCountMin) Estimate(key uint64) uint64 {
	est := uint64(math.MaxUint64)
	for r := 0; r < cm.rows; r++ {
		c := hash64(uint64(r)+1, key) % uint64(cm.cols)
		if cm.counts[r][c] < est {
			est = cm.counts[r][c]
		}
	}
	return est
}
