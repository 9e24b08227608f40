package cluster

import (
	"fmt"
	"math/bits"

	"accturbo/internal/packet"
)

// memberTable answers, for one packet and every cluster at once, the two
// questions that decide whether any cluster already covers it: which
// clusters admit its nominal values, and which clusters' ranges contain
// its byte-wide ordinal values. It is value-major: per feature one array
// in which cell v carries one bit per cluster slot, so a packet
// learns what every cluster says about its value from one load per
// feature, however many clusters there are — the software shape of the
// hardware comparing a packet against all clusters at once (§4). A packet
// some cluster covers (distance 0), and a packet one unseen nominal value
// away from a cluster whose ranges contain it (distance 1, when no cluster
// admits all its nominal values), are therefore answered by F loads, an
// AND and a count-trailing-zeros, and never meet the cluster-by-cluster
// scan; see gather for exactly which packets those are.
//
// The table has two kinds of cell.
//
// Nominal cells (feats): bit c of cell v is set when cluster c admits
// value v, one cell per value of the feature's space. What the cells
// cannot answer cheaply — which values does cluster c admit — is kept
// beside them: a per-(slot, feature) list of the values carrying the
// slot's bit, in admission order, whose length is the set's cardinality.
// Enumeration (snapshots) and clearing a slot walk that list, so
// reseeding costs in proportion to what was admitted, not to the table
// size, and the lists' backing arrays are reused.
//
// Span cells (spans), one 256-cell array per ordinal feature of at most
// eight bits: bit c of cell v is set exactly when cluster c is seeded and
// its range [min, max] at that feature contains v. The ranges themselves
// stay in Online's min/max arrays, which remain the truth; the cells are
// derived from them and never serialized. What keeps them true is that
// every write of a range goes through Online.setRange (a fresh slot's
// first range) or Online.widen (growth, which sets only the cells the
// range grew by, so each (cluster, feature, value) bit is set at most
// once per generation), and that slots are freed only by discarding every
// cluster, which zeroes the arrays (clearSpans). Wider ordinals (ip.len,
// ip.id, whole addresses) have no cells; Online checks them arithmetically
// on the few clusters the table leaves standing.
//
// A cell is one bit per cluster slot, 1<<lw bits wide: the next power of
// two of at least a byte that holds every slot. Cells are packed into
// 64-bit words, cell v from bit v<<lw of the array on, so a cell is read
// by one aligned word load that never crosses a cache line; up to
// eight slots it is a byte, and a 16-bit nominal feature costs 64 KiB.
// Every value space is a power of two of at least 256 values, so the
// cells fill whole words. A table holds at most maxSlots slots; a
// configuration with more clusters runs on Reference (Config.Deployed).
type memberTable struct {
	lw    uint // log2 of the cell width in bits: 3 (≤ 8 slots) to 6 (≤ 64)
	feats []memberFeat

	// lists[slot*len(feats)+j] holds the values slot admits at the j-th
	// nominal feature: the cells carrying its bit.
	lists [][]uint32

	// miss is the per-packet gather: bit c of miss[j] is set when slot c
	// does NOT admit the packet's value at nominal feature j. Only the
	// seeded slots' bits mean anything.
	miss []uint64
	// cover is the gather's verdict: bit c is set when slot c is seeded,
	// contains every byte-wide ordinal value of the packet and admits
	// every nominal one (gather returned 0) or all of them but one
	// (gather returned 1).
	cover uint64

	spans []memberFeat
}

// memberFeat is one feature's share of the table.
type memberFeat struct {
	pos   int      // position in the configured feature set
	ncell uint64   // nominal: value-space size; span: 256
	cells []uint64 // ncell cells of 1<<lw bits, packed as memberTable says
}

// spanBits is the widest ordinal feature that gets span cells.
const spanBits = 8

// maxSlots is the most cluster slots a table has bits for: one word.
const maxSlots = 64

// newMemberTable builds an empty table over feats with bits for `slots`
// cluster slots, at most maxSlots of them.
func newMemberTable(feats packet.FeatureSet, slots int) *memberTable {
	if slots > maxSlots {
		panic(fmt.Sprintf("cluster: a membership table of %d slots; it holds at most %d", slots, maxSlots))
	}
	t := &memberTable{lw: uint(max(bits.Len(uint(slots-1)), 3))}
	cells := func(pos int, ncell uint64) memberFeat {
		return memberFeat{pos: pos, ncell: ncell, cells: make([]uint64, ncell<<t.lw/64)}
	}
	for pos, f := range feats {
		switch {
		case f.Nominal():
			t.feats = append(t.feats, cells(pos, uint64(f.MaxValue())+1))
		case f.Bits() <= spanBits:
			t.spans = append(t.spans, cells(pos, 1<<spanBits))
		}
	}
	t.lists = make([][]uint32, slots*len(t.feats))
	t.miss = make([]uint64, len(t.feats))
	return t
}

// bit returns the word holding cell v of f and slot's bit in it.
func (t *memberTable) bit(f *memberFeat, slot int, v uint32) (*uint64, uint64) {
	at := uint(v)<<(t.lw&7) + uint(slot)&63
	return &f.cells[at/64], 1 << (at % 64)
}

// admit makes slot admit value v at nominal feature j. A value the slot
// already admits changes nothing.
func (t *memberTable) admit(slot, j int, v uint32) {
	w, bit := t.bit(&t.feats[j], slot, v)
	if *w&bit != 0 {
		return
	}
	*w |= bit
	l := &t.lists[slot*len(t.feats)+j]
	*l = append(*l, v)
}

// cardinality returns how many values slot admits at nominal feature j.
func (t *memberTable) cardinality(slot, j int) int { return len(t.lists[slot*len(t.feats)+j]) }

// clearSlot empties every nominal set of slot, keeping the lists'
// backing arrays for the slot's next occupant.
func (t *memberTable) clearSlot(slot int) {
	nn := len(t.feats)
	for j := 0; j < nn; j++ {
		l := &t.lists[slot*nn+j]
		for _, v := range *l {
			w, bit := t.bit(&t.feats[j], slot, v)
			*w &^= bit
		}
		*l = (*l)[:0]
	}
}

// setSpan sets slot's bit in cells lo..hi of span i: the values a range
// came to contain. It ORs word by word a mask with the bit in every cell,
// cut to the range's bits [from, to).
func (t *memberTable) setSpan(slot, i int, lo, hi uint32) {
	cells, lw := t.spans[i].cells, t.lw&7
	rep := cellLSBs[lw-3] << (uint(slot) & 63)
	from, to := uint(lo)<<lw, (uint(hi)+1)<<lw
	for w := from / 64; w*64 < to; w++ {
		below, above := max(from, w*64)-w*64, w*64+64-min(to, w*64+64)
		cells[w] |= rep & (^uint64(0) << below) & (^uint64(0) >> above)
	}
}

// cellLSBs[lw-3] has the lowest bit of every 1<<lw-bit cell of a word set.
var cellLSBs = [...]uint64{0x0101010101010101, 0x0001000100010001, 0x0000000100000001, 1}

// clearSpans empties every span cell: no cluster is seeded.
func (t *memberTable) clearSpans() {
	for i := range t.spans {
		clear(t.spans[i].cells)
	}
}

// bitmap ORs the values slot admits at nominal feature j into bm, a
// bitmap over the value space, which yields them in ascending order. bm
// must hold ceil(ncell/64) zeroed words.
func (t *memberTable) bitmap(slot, j int, bm []uint64) {
	for _, cell := range t.lists[slot*len(t.feats)+j] {
		bm[cell>>6] |= 1 << (cell & 63)
	}
}

// gather answers one packet for every slot at once, and says how far away
// the clusters it names are. It fills t.miss, one cell load per nominal
// feature, and leaves in t.cover, of the first n slots (the seeded ones),
// the clusters at the distance it returns, as far as the table can tell:
//
//   - 0: the slots no nominal feature misses, AND-ed with the packet's
//     cell of every span — the clusters that cover the packet.
//   - 1: when no slot admits all of the packet's nominal values, the slots
//     exactly one nominal feature misses (once &^ twice over the miss
//     words just stored, walked again here rather than accumulated in the
//     loop every covered packet runs), AND-ed with the same span cells —
//     the near misses: one unseen value inside every range.
//   - -1: t.cover is empty and the table has no answer.
//
// Raw Manhattan distances are integers, so when nothing covers the packet
// every cluster is at distance 1 or more, and distance 1 has two shapes:
// (A) one nominal miss and every ordinal inside its range, or (B) no
// nominal miss and an ordinal sum of one. (B) needs a slot that admits
// every nominal value, so when there is none the clusters at distance 1
// are exactly the near misses, and the lowest-indexed one is what a scan
// with ties to the lowest index returns (Online.closest). When some slot
// does admit every nominal value but a span excludes it, (B) is possible
// and the answer is -1, not the near misses. The empty sets of
// slice-initialised slots miss at every nominal feature and are never
// near.
//
// A load shifts the packet's cell to the bottom of its word; the bits
// above it, other values' cells, sit past the last slot, where seeded has
// none and nothing reads. The span cells are not loaded when neither mask
// has a bit left (a packet two unseen values away from everything, say).
// "As far as the table can tell" is all the way unless the feature set
// has ordinals wider than a byte. A value outside its feature's space
// panics on its own feature's array, at nominal and span positions alike,
// whenever the span cells are read.
func (t *memberTable) gather(vals []uint32, n int) (dist int) {
	lw := t.lw & 7 // in range, so the compiler shifts by it unchecked
	seeded := uint64(1)<<uint(n) - 1
	cover := seeded
	feats, miss := t.feats, t.miss[:len(t.feats)]
	for j := range feats {
		f := &feats[j]
		at := uint(vals[f.pos]) << lw
		m := ^(f.cells[at/64] >> (at % 64))
		miss[j] = m
		cover &^= m
	}
	if cover == 0 {
		var once, twice uint64
		for _, m := range miss {
			twice |= once & m
			once |= m
		}
		cover, dist = seeded&once&^twice, 1
	}
	if cover != 0 {
		for i := range t.spans {
			f := &t.spans[i]
			at := uint(vals[f.pos]) << lw
			cover &= f.cells[at/64] >> (at % 64)
		}
	}
	t.cover = cover
	if cover == 0 {
		return -1
	}
	return dist
}

// misses reports whether slot does not admit the gathered packet's value
// at nominal feature j, as 0 or 1.
func (t *memberTable) misses(slot, j int) byte {
	return byte(t.miss[j] >> (uint(slot) & 63) & 1)
}

// missed returns the first nominal feature at which slot does not admit
// the gathered packet's value — the only one, for a near miss — or -1.
func (t *memberTable) missed(slot int) int {
	for j := range t.feats {
		if t.misses(slot, j) != 0 {
			return j
		}
	}
	return -1
}
