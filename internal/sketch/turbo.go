package sketch

import (
	"fmt"
	"math"
)

// TurboCountMin is the wire-speed count-min variant. It trades the
// seed-era FNV/modulo placement of ReferenceCountMin for:
//
//   - One 64-bit mix (splitmix64 finalizer) per key instead of one
//     8-iteration FNV loop per row, with the per-row hashes derived
//     Kirsch–Mitzenmacher style as h1 + r*h2.
//   - Power-of-two columns indexed with a mask instead of `%`.
//   - A cache-line-blocked layout: rows are grouped 8 to a block, each
//     block derives ONE line index per key, and the ≤8 rows of the
//     block land in distinct lanes of that 64-byte line (lane bits come
//     from the hash's upper bits, disjoint from the line bits). An
//     update therefore touches ceil(rows/8) cache lines instead of
//     rows — one line at the Jaqen default geometry.
//   - Optional conservative update: only counters at the key's current
//     minimum are raised, which provably keeps estimates ≥ truth while
//     never exceeding the vanilla estimate (differentially tested).
//
// Estimates are NOT comparable bit-for-bit with ReferenceCountMin;
// goldens that cover a caller moved onto this sketch are regenerated,
// never silently reinterpreted. The blocked layout trades
// some independence for locality: two keys collide on a whole block
// only if they share its line (probability 8/cols) AND their per-row
// lanes land on occupied counters (~(1/2)^rows for a full block-depth
// collision, since a depth-r key occupies up to r of the line's 8
// lanes). That is far likelier than classic count-min's (1/cols)^rows,
// so turbo sketches buy back accuracy with width (cols is cheap — the
// whole line is touched anyway) and with conservative update; the
// est ≥ truth guarantee is unaffected. TopK additionally caps heap
// admission so a full-block collision cannot freeze a phantom into the
// ranking.
type TurboCountMin struct {
	rows, cols   int  // cols is a power of two, ≥ 8
	conservative bool // conservative update (increment-min-only)
	lineMask     uint64
	counts       []uint64 // ceil(rows/8) blocks × cols counters
	// Updates counts Add-ed keys since the last Reset.
	Updates uint64
}

// maxTurboRows bounds the depth so per-key index scratch fits a fixed
// stack array. ln(1/delta) sizing hits 64 rows at delta = 1e-28; no
// real configuration comes close.
const maxTurboRows = 64

// NewTurboCountMin builds a turbo sketch with ~rows × cols geometry:
// cols is rounded up to a power of two (minimum 8, one cache line) and
// rows is capped at 64. conservative selects conservative update.
func NewTurboCountMin(rows, cols int, conservative bool) *TurboCountMin {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sketch: invalid turbo count-min geometry %dx%d", rows, cols))
	}
	if rows > maxTurboRows {
		panic(fmt.Sprintf("sketch: turbo count-min depth %d exceeds %d", rows, maxTurboRows))
	}
	w := 8
	for w < cols {
		w <<= 1
	}
	blocks := (rows + 7) / 8
	return &TurboCountMin{
		rows:         rows,
		cols:         w,
		conservative: conservative,
		lineMask:     uint64(w/8 - 1),
		counts:       make([]uint64, blocks*w),
	}
}

// Rows and Cols report the effective geometry (cols after power-of-two
// round-up).
func (t *TurboCountMin) Rows() int { return t.rows }
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

// hashPair derives the Kirsch–Mitzenmacher base hashes for a key: h2
// is forced odd so successive h1 + g*h2 values cycle through all
// residues.
func hashPair(key uint64) (h1, h2 uint64) {
	h1 = mix64(key)
	h2 = mix64(h1) | 1
	return h1, h2
}

// index returns the flat counter index for row r given the row's block
// hash hg: the low bits pick the block's cache line, three disjoint
// high bits pick the row's lane within it. The hot paths inline this
// math per block (see line); index itself serves tests and non-hot
// callers as the layout's definition.
func (t *TurboCountMin) index(r int, hg uint64) int {
	block := r >> 3
	line := hg & t.lineMask
	lane := (hg >> (40 + 3*uint(r&7))) & 7
	return block*t.cols + int(line*8+lane)
}

// line returns block b's cache line for block hash hg as an 8-counter
// array view. The fixed-size array conversion is what lets the hot
// loops index lanes (always masked &7) with no bounds check.
func (t *TurboCountMin) line(counts []uint64, base int, hg uint64) *[8]uint64 {
	i := base + int(hg&t.lineMask)*8
	return (*[8]uint64)(counts[i : i+8])
}

// blockHash returns block b's hash. Block 0 uses h1 alone — the common
// rows ≤ 8 case never pays for the second mix (see Add).
func blockHash(h1, h2 uint64, b int) uint64 {
	return h1 + uint64(b)*h2
}

// Add increments key's count by delta and returns the new estimate.
// Counters saturate at MaxUint64, as ReferenceCountMin's do. With
// conservative update only counters at the key's current minimum move, so the
// estimate grows to exactly min+delta instead of inflating every row.
func (t *TurboCountMin) Add(key uint64, delta uint64) uint64 {
	t.Updates++
	h1 := mix64(key)
	var h2 uint64
	if t.rows > 8 {
		h2 = mix64(h1) | 1 // only multi-block sketches need the KM step
	}
	if t.conservative {
		return t.addCU(h1, h2, delta)
	}
	return t.addVanilla(h1, h2, delta)
}

// addVanilla is the single-pass non-conservative update: per block,
// one line load, then saturating adds on the block's lanes.
func (t *TurboCountMin) addVanilla(h1, h2, delta uint64) uint64 {
	counts := t.counts
	out := uint64(math.MaxUint64)
	rows, base, b := t.rows, 0, 0
	for rows > 0 {
		hg := blockHash(h1, h2, b)
		tail := t.line(counts, base, hg)
		n := rows
		if n > 8 {
			n = 8
		}
		shift := uint(40)
		for r := 0; r < n; r++ {
			p := &tail[(hg>>shift)&7]
			shift += 3
			v := *p + delta
			if v < *p {
				v = math.MaxUint64 // saturate, never wrap
			}
			*p = v
			if v < out {
				out = v
			}
		}
		rows -= n
		base += t.cols
		b++
	}
	return out
}

// addCU is the conservative update: pass 1 finds the key's minimum
// across all rows, pass 2 raises only counters below min+delta. Both
// passes touch the same lines, so the second is cache-resident. The
// raise is written load-select-store (not a conditional store) so the
// compiler emits a branchless conditional move — whether a counter
// moves is data-dependent and would mispredict half the time.
func (t *TurboCountMin) addCU(h1, h2, delta uint64) uint64 {
	counts := t.counts
	if t.rows <= 8 {
		// Single block: one line, one hash — find the min and raise in
		// place without recomputing either.
		hg := h1
		tail := t.line(counts, 0, hg)
		est := uint64(math.MaxUint64)
		shift := uint(40)
		for r := 0; r < t.rows; r++ {
			if v := tail[(hg>>shift)&7]; v < est {
				est = v
			}
			shift += 3
		}
		target := est + delta
		if target < est {
			target = math.MaxUint64 // saturate, never wrap
		}
		shift = 40
		for r := 0; r < t.rows; r++ {
			p := &tail[(hg>>shift)&7]
			shift += 3
			v := *p
			if v < target {
				v = target
			}
			*p = v
		}
		return target
	}
	est := t.estimateHashed(h1, h2)
	target := est + delta
	if target < est {
		target = math.MaxUint64 // saturate, never wrap
	}
	rows, base, b := t.rows, 0, 0
	for rows > 0 {
		hg := blockHash(h1, h2, b)
		tail := t.line(counts, base, hg)
		n := rows
		if n > 8 {
			n = 8
		}
		shift := uint(40)
		for r := 0; r < n; r++ {
			p := &tail[(hg>>shift)&7]
			shift += 3
			v := *p
			if v < target {
				v = target
			}
			*p = v
		}
		rows -= n
		base += t.cols
		b++
	}
	return target
}

// estimateHashed is the min-of-rows query after hashing.
func (t *TurboCountMin) estimateHashed(h1, h2 uint64) uint64 {
	counts := t.counts
	est := uint64(math.MaxUint64)
	rows, base, b := t.rows, 0, 0
	for rows > 0 {
		hg := blockHash(h1, h2, b)
		tail := t.line(counts, base, hg)
		n := rows
		if n > 8 {
			n = 8
		}
		shift := uint(40)
		for r := 0; r < n; r++ {
			if v := tail[(hg>>shift)&7]; v < est {
				est = v
			}
			shift += 3
		}
		rows -= n
		base += t.cols
		b++
	}
	return est
}

// Estimate returns the (over-)estimated count of key.
func (t *TurboCountMin) Estimate(key uint64) uint64 {
	h1 := mix64(key)
	var h2 uint64
	if t.rows > 8 {
		h2 = mix64(h1) | 1
	}
	return t.estimateHashed(h1, h2)
}

// Reset zeroes all counters.
func (t *TurboCountMin) Reset() {
	clear(t.counts)
	t.Updates = 0
}

// Words returns a copy of the counter array (block-major), for
// serialization.
func (t *TurboCountMin) Words() []uint64 {
	out := make([]uint64, len(t.counts))
	copy(out, t.counts)
	return out
}

// SetWords overwrites the counter array from a serialized copy; the
// word count must match the sketch's geometry.
func (t *TurboCountMin) SetWords(words []uint64, updates uint64) error {
	if len(words) != len(t.counts) {
		return fmt.Errorf("sketch: turbo count-min has %d words, snapshot has %d", len(t.counts), len(words))
	}
	copy(t.counts, words)
	t.Updates = updates
	return nil
}

// FootprintBytes reports the counter memory, a sizing diagnostic: the
// blocked layout holds ceil(rows/8)*cols counters, not rows*cols.
func (t *TurboCountMin) FootprintBytes() int { return len(t.counts) * 8 }
