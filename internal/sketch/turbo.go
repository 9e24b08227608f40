package sketch

import (
	"fmt"
	"math/bits"
)

// TurboRows is the depth of every turbo count-min: a key's four
// counters are four lanes of one 64-byte line.
const TurboRows = 4

// TurboCountMin is the wire-speed count-min variant. It trades the
// seed-era FNV/modulo placement of ReferenceCountMin for:
//
//   - One 64-bit mix (splitmix64 finalizer) per key instead of one
//     8-iteration FNV loop per row.
//   - Power-of-two columns indexed with a mask instead of `%`.
//   - One cache line per key: the hash's low bits pick one of cols/8
//     64-byte lines, and four disjoint 3-bit fields of its upper bits
//     pick the lane of each of the TurboRows rows within it. An update
//     is straight-line code over those four lanes.
//   - Optional conservative update: only counters at the key's current
//     minimum are raised, which provably keeps estimates ≥ truth while
//     never exceeding the vanilla estimate (differentially tested).
//
// Estimates are NOT comparable bit-for-bit with ReferenceCountMin;
// goldens that cover a caller moved onto this sketch are regenerated,
// never silently reinterpreted. The one-line layout trades some
// independence for locality: two keys collide on every row only if
// they share a line (probability 8/cols) AND their lanes land on
// occupied counters (~(1/2)^4, since a key occupies up to four of the
// line's eight lanes). That is far likelier than classic count-min's
// (1/cols)^4, so turbo sketches buy back accuracy with width (cols is
// cheap — the whole line is touched anyway) and with conservative
// update; the est ≥ truth guarantee is unaffected. TopK additionally
// caps heap admission so a whole-line collision cannot freeze a phantom
// into the ranking.
type TurboCountMin struct {
	cols         int  // a power of two, ≥ 8
	conservative bool // conservative update (increment-min-only)
	lineMask     uint64
	counts       []uint64 // cols counters: cols/8 lines of 8 lanes
	// Updates counts Add-ed keys since the last Reset.
	Updates uint64
}

// NewTurboCountMin builds a TurboRows × cols turbo sketch: cols is
// rounded up to a power of two (minimum 8, one cache line).
// conservative selects conservative update.
func NewTurboCountMin(cols int, conservative bool) *TurboCountMin {
	if cols <= 0 {
		panic(fmt.Sprintf("sketch: invalid turbo count-min width %d", cols))
	}
	w := 8
	for w < cols {
		w <<= 1
	}
	return &TurboCountMin{
		cols:         w,
		conservative: conservative,
		lineMask:     uint64(w/8 - 1),
		counts:       make([]uint64, w),
	}
}

// Cols reports the effective width (after power-of-two round-up).
func (t *TurboCountMin) Cols() int { return t.cols }

// mix64 is the splitmix64 finalizer: one multiply-xorshift cascade
// giving 64 well-mixed bits from a 64-bit key.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// line returns the key hash h's cache line as an 8-counter array view.
// The fixed-size array is what lets the kernels index lanes (always
// masked &7) with no bounds check; row r's lane is h>>(40+3r)&7.
func (t *TurboCountMin) line(h uint64) *[8]uint64 {
	i := int(h&t.lineMask) * 8
	return (*[8]uint64)(t.counts[i : i+8])
}

// satAdd is a + b, saturating at MaxUint64 instead of wrapping.
func satAdd(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	return s | -carry
}

// Add increments key's count by delta and returns the new estimate.
// Counters saturate at MaxUint64, as ReferenceCountMin's do. With
// conservative update only counters at the key's current minimum move, so the
// estimate grows to exactly min+delta instead of inflating every row.
func (t *TurboCountMin) Add(key uint64, delta uint64) uint64 {
	t.Updates++
	h := mix64(key)
	if t.conservative {
		return t.addCU(h, delta)
	}
	return t.addVanilla(h, delta)
}

// addVanilla adds delta to each row's lane in row order. Two rows may
// share a lane; that counter then takes delta twice, as it would in a
// row-by-row loop.
func (t *TurboCountMin) addVanilla(h, delta uint64) uint64 {
	c := t.line(h)
	v0 := satAdd(c[h>>40&7], delta)
	c[h>>40&7] = v0
	v1 := satAdd(c[h>>43&7], delta)
	c[h>>43&7] = v1
	v2 := satAdd(c[h>>46&7], delta)
	c[h>>46&7] = v2
	v3 := satAdd(c[h>>49&7], delta)
	c[h>>49&7] = v3
	return min(v0, v1, v2, v3)
}

// addCU is the conservative update: the key's minimum across its four
// lanes plus delta is the target, and each lane is raised to it. The
// raise is a max, not a conditional store, so the compiler emits a
// branchless conditional move — whether a counter moves is
// data-dependent and would mispredict half the time.
func (t *TurboCountMin) addCU(h, delta uint64) uint64 {
	c := t.line(h)
	target := satAdd(min(c[h>>40&7], c[h>>43&7], c[h>>46&7], c[h>>49&7]), delta)
	c[h>>40&7] = max(c[h>>40&7], target)
	c[h>>43&7] = max(c[h>>43&7], target)
	c[h>>46&7] = max(c[h>>46&7], target)
	c[h>>49&7] = max(c[h>>49&7], target)
	return target
}

// Estimate returns the (over-)estimated count of key.
func (t *TurboCountMin) Estimate(key uint64) uint64 {
	h := mix64(key)
	c := t.line(h)
	return min(c[h>>40&7], c[h>>43&7], c[h>>46&7], c[h>>49&7])
}

// Reset zeroes all counters.
func (t *TurboCountMin) Reset() {
	clear(t.counts)
	t.Updates = 0
}
