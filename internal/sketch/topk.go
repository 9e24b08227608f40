package sketch

import "math"

// TopK tracks the k heaviest keys of a weighted stream — the
// heavy-keeper design: a turbo count-min estimates every key's weight,
// a min-heap of candidate keys holds the current top k, and an
// incumbent that keeps losing to new challengers decays exponentially
// until it is evicted. The victim-identification front-end uses one
// per egress link to rank heavy destination aggregates.
//
// Determinism: eviction decay is probabilistic in the heavy-keeper
// paper; here the coin flips come from an internal splitmix64 stream
// seeded at construction, so the same offer sequence always yields the
// same ranking — which is what lets the victim experiment run under
// the CI determinism gate.
type TopK struct {
	k       int
	cm      *TurboCountMin
	entries []tkEntry      // min-heap on count; entries[0] is the weakest incumbent
	pos     map[uint64]int // key -> heap index
	rng     uint64         // splitmix64 state for decay coin flips
	// decayThresh[c] is the probability (as a 2^64-scaled threshold) of
	// decaying an incumbent with count c when a challenger loses to it:
	// decayBase^-c, the heavy-keeper exponential decay.
	decayThresh []uint64
	// Decayed counts eviction-decay events, an observability aid.
	Decayed uint64
	// last is the heap index the previous tracked key came to rest at;
	// during a run it is the run key's slot.
	last int
	// The open run: runN consecutive offers of the tracked key runKey,
	// of total weight runW, whose sketch update is held back. An attack
	// sends long runs of packets to one destination, and with nothing
	// in between, conservative updates of one key by a then b equal one
	// update by a+b (saturation included), so flush applies the run as
	// one Add. runN == 0 means no run is open.
	runKey, runW, runN uint64
}

type tkEntry struct {
	key   uint64
	count uint64
}

// Element is one ranked entry of a TopK ranking.
type Element struct {
	Key   uint64
	Count uint64
}

// decayBase is the heavy-keeper b parameter: incumbents survive
// challengers with probability 1 - b^-count, so established heavy
// keys are nearly immortal while noise decays away in a few offers.
const decayBase = 1.08

// decayTableSize caps the precomputed threshold table; beyond it
// b^-count underflows any useful probability (1.08^-256 ≈ 3e-9).
const decayTableSize = 256

// NewTopK builds a tracker for the k heaviest keys backed by a
// TurboRows × cols turbo count-min (conservative update — overestimates
// would otherwise promote phantom candidates, and the run coalescing
// relies on it). seed drives the decay coin flips.
func NewTopK(k, cols int, seed uint64) *TopK {
	if k <= 0 {
		panic("sketch: TopK needs k > 0")
	}
	t := &TopK{
		k:           k,
		cm:          NewTurboCountMin(cols, true),
		entries:     make([]tkEntry, 0, k),
		pos:         make(map[uint64]int, k),
		rng:         seed,
		decayThresh: make([]uint64, decayTableSize),
	}
	for c := 0; c < decayTableSize; c++ {
		p := math.Pow(decayBase, -float64(c))
		t.decayThresh[c] = uint64(p * float64(math.MaxUint64))
	}
	return t
}

// nextRand advances the splitmix64 stream.
func (t *TopK) nextRand() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	return mix64(t.rng)
}

// Offer feeds one (key, weight) observation. Allocation free at steady
// state: heap slots and map cells are reused across evictions.
func (t *TopK) Offer(key uint64, weight uint64) {
	if key == t.runKey && t.runN != 0 {
		t.runW = satAdd(t.runW, weight)
		t.runN++
		t.last = t.grow(t.last, weight)
		return
	}
	t.flush()
	if i, ok := t.pos[key]; ok {
		// Tracked keys count exactly: the sketch is only consulted for
		// challengers, so incumbents are immune to its overestimate.
		t.runKey, t.runW, t.runN = key, weight, 1
		t.last = t.grow(i, weight)
		return
	}
	est := t.cm.Add(key, weight)
	if len(t.entries) < t.k {
		t.entries = append(t.entries, tkEntry{key: key, count: est})
		t.pos[key] = len(t.entries) - 1
		t.siftUp(len(t.entries) - 1)
		return
	}
	min := &t.entries[0]
	if est > min.count {
		// Admit at min(est, evicted+weight), not raw est: a challenger
		// whose counters all collide with a true heavy key can carry an
		// estimate tens of times its real weight, and entering at that
		// value would freeze a phantom above genuine heavy keys. Capping
		// at the evicted count plus this offer keeps admission monotone
		// (the entrant outranks what it displaced) without importing the
		// sketch's collision error into the ranking.
		c := satAdd(min.count, weight)
		if est < c {
			c = est
		}
		delete(t.pos, min.key)
		min.key, min.count = key, c
		t.pos[key] = 0
		t.siftDown(0)
		return
	}
	// Challenger lost: decay the weakest incumbent with probability
	// decayBase^-count. A decayed-to-zero incumbent is replaced by the
	// challenger at its sketch estimate.
	c := min.count
	if c >= decayTableSize {
		c = decayTableSize - 1
	}
	if t.nextRand() < t.decayThresh[c] {
		t.Decayed++
		if min.count <= weight {
			delete(t.pos, min.key)
			min.key, min.count = key, est
			t.pos[key] = 0
			t.siftDown(0)
			return
		}
		min.count -= weight
		// Count decreased at the root of a min-heap: still the minimum.
	}
}

// AppendTop appends the tracked keys to dst ranked heaviest first
// (count desc, key asc for ties — the tie-break keeps output
// deterministic) and returns it, allocation-free for per-window polling.
func (t *TopK) AppendTop(dst []Element) []Element {
	n := len(dst)
	for _, e := range t.entries {
		dst = append(dst, Element{Key: e.key, Count: e.count})
	}
	sortElements(dst[n:])
	return dst
}

// sortElements orders count desc, key asc — an insertion sort because
// k is small and sort.Slice's reflection would allocate on the
// zero-alloc polling path.
func sortElements(es []Element) {
	for i := 1; i < len(es); i++ {
		e := es[i]
		j := i - 1
		for j >= 0 && (es[j].Count < e.Count || (es[j].Count == e.Count && es[j].Key > e.Key)) {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = e
	}
}

// grow adds weight to the tracked entry at heap index i and returns the
// index it comes to rest at.
func (t *TopK) grow(i int, weight uint64) int {
	e := &t.entries[i]
	e.count = satAdd(e.count, weight)
	return t.siftDown(i)
}

// flush applies the open run to the sketch as one update and closes it.
// Updates still counts every offer.
func (t *TopK) flush() {
	if t.runN == 0 {
		return
	}
	t.cm.Add(t.runKey, t.runW)
	t.cm.Updates += t.runN - 1
	t.runN = 0
}

// Reset clears the tracker and its sketch for the next window. The
// decay RNG deliberately keeps its state: windows stay deterministic
// as a sequence, not individually identical.
func (t *TopK) Reset() {
	t.flush()
	t.cm.Reset()
	t.entries = t.entries[:0]
	clear(t.pos)
	t.Decayed = 0
}

// siftUp restores the min-heap upward from i, keeping pos in sync.
func (t *TopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.entries[p].count <= t.entries[i].count {
			return
		}
		t.swap(p, i)
		i = p
	}
}

// siftDown restores the min-heap downward from i, keeping pos in sync,
// and returns the index the entry came to rest at.
func (t *TopK) siftDown(i int) int {
	n := len(t.entries)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && t.entries[l].count < t.entries[small].count {
			small = l
		}
		if r < n && t.entries[r].count < t.entries[small].count {
			small = r
		}
		if small == i {
			return i
		}
		t.swap(i, small)
		i = small
	}
}

func (t *TopK) swap(i, j int) {
	t.entries[i], t.entries[j] = t.entries[j], t.entries[i]
	t.pos[t.entries[i].key] = i
	t.pos[t.entries[j].key] = j
}
