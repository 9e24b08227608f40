package faults

// Rand is the package's seeded splitmix64 stream, exported so other
// fault-injection surfaces (the fleet chaos proxy, reconnect-backoff
// jitter) draw from the same deterministic generator family. Like the
// injector's packet-fault stream, a Rand is fully determined by its seed:
// two Rands built with the same seed produce identical sequences, which
// is what lets the golden manifests pin chaos runs to their bytes.
//
// Not goroutine-safe; give each concurrent consumer its own stream
// (derive per-consumer seeds with DeriveSeed so enabling one consumer
// never perturbs another's draws).
type Rand struct{ state uint64 }

// NewRand returns a splitmix64 stream seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Next returns the next 64-bit draw.
func (r *Rand) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Prob reports a Bernoulli(p) trial. Degenerate probabilities do not
// consume a draw, so a disabled fault class never advances its stream.
func (r *Rand) Prob(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// DeriveSeed folds a label into a seed, producing an independent stream
// seed: the label is mixed through one splitmix64 round so adjacent
// labels (0, 1, 2, ...) land on uncorrelated streams.
func DeriveSeed(seed, label uint64) uint64 {
	r := Rand{state: seed ^ (label * 0x9e3779b97f4a7c15)}
	return r.Next()
}
