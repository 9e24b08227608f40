package cluster

import "accturbo/internal/packet"

// memberTable answers, for one packet and every cluster at once, the two
// questions that decide whether any cluster already covers it: which
// clusters admit its nominal values, and which clusters' ranges contain
// its byte-wide ordinal values. It is value-major: per feature one byte
// array in which cell i carries one bit per cluster slot, so a packet
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
// A cell is `planes` consecutive bytes (slot c lives in byte c/8, bit
// c%8), so the bits of all clusters for one value share a cache line.
type memberTable struct {
	planes int // bytes per cell: one bit per cluster slot, ceil(slots/8)
	feats  []memberFeat

	// lists[slot*len(feats)+j] holds the values slot admits at the j-th
	// nominal feature: the cells carrying its bit.
	lists [][]uint32

	// miss is the per-packet gather: miss[j*planes+p] has bit b set when
	// slot p*8+b does NOT admit the packet's value at nominal feature j.
	miss []byte
	// cover is the gather's verdict: bit b of cover[p] is set when slot
	// p*8+b is seeded, contains every byte-wide ordinal value of the
	// packet and admits every nominal one (gather returned 0) or all of
	// them but one (gather returned 1).
	cover []byte

	spans []memberFeat
}

// memberFeat is one feature's share of the table.
type memberFeat struct {
	pos   int    // position in the configured feature set
	ncell uint64 // nominal: value-space size; span: 256
	cells []byte // ncell*planes bytes; cell i, plane p at i*planes+p
}

// spanBits is the widest ordinal feature that gets span cells.
const spanBits = 8

// newMemberTable builds an empty table over feats with bits for `slots`
// cluster slots.
func newMemberTable(feats packet.FeatureSet, slots int) *memberTable {
	t := &memberTable{planes: (slots + 7) / 8}
	cells := func(pos int, ncell uint64) memberFeat {
		return memberFeat{pos: pos, ncell: ncell, cells: make([]byte, ncell*uint64(t.planes))}
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
	t.miss = make([]byte, len(t.feats)*t.planes)
	t.cover = make([]byte, t.planes)
	return t
}

// admit makes slot admit value v at nominal feature j. A value the slot
// already admits changes nothing.
func (t *memberTable) admit(slot, j int, v uint32) {
	b := &t.feats[j].cells[int(v)*t.planes+slot>>3]
	bit := byte(1) << (slot & 7)
	if *b&bit != 0 {
		return
	}
	*b |= bit
	l := &t.lists[slot*len(t.feats)+j]
	*l = append(*l, v)
}

// cardinality returns how many values slot admits at nominal feature j.
func (t *memberTable) cardinality(slot, j int) int { return len(t.lists[slot*len(t.feats)+j]) }

// clearSlot empties every nominal set of slot, keeping the lists'
// backing arrays for the slot's next occupant.
func (t *memberTable) clearSlot(slot int) {
	nn := len(t.feats)
	p, keep := slot>>3, ^(byte(1) << (slot & 7))
	for j := 0; j < nn; j++ {
		cells := t.feats[j].cells
		l := &t.lists[slot*nn+j]
		for _, cell := range *l {
			cells[int(cell)*t.planes+p] &= keep
		}
		*l = (*l)[:0]
	}
}

// setSpan sets slot's bit in cells lo..hi of span i: the values a range
// came to contain.
func (t *memberTable) setSpan(slot, i int, lo, hi uint32) {
	planes, at := t.planes, slot>>3
	cells := t.spans[i].cells[int(lo)*planes+at : int(hi)*planes+at+1]
	bit := byte(1) << (slot & 7)
	for c := 0; c < len(cells); c += planes {
		cells[c] |= bit
	}
}

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
//     bytes just stored, walked again here rather than accumulated in the
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
// The span cells are not loaded when neither mask has a bit left (a
// packet two unseen values away from everything, say). "As far as the
// table can tell" is all the way unless the feature set has ordinals
// wider than a byte. A value outside its feature's space panics on its
// own feature's array, at nominal and span positions alike, whenever the
// span cells are read.
func (t *memberTable) gather(vals []uint32, n int) (dist int) {
	planes := t.planes
	if planes == 1 {
		// The deployed shape (up to eight slots) without the per-plane
		// loops below, which cost it 8–12 ns a packet.
		miss := t.miss[:len(t.feats)]
		seeded := byte(uint(1)<<n - 1)
		cover := seeded
		for j := range miss {
			f := &t.feats[j]
			m := ^f.cells[vals[f.pos]]
			miss[j] = m
			cover &^= m
		}
		if cover == 0 {
			var once, twice byte
			for _, m := range miss {
				twice |= once & m
				once |= m
			}
			cover, dist = seeded&once&^twice, 1
		}
		if cover != 0 {
			for i := range t.spans {
				f := &t.spans[i]
				cover &= f.cells[vals[f.pos]]
			}
		}
		t.cover[0] = cover
		if cover == 0 {
			return -1
		}
		return dist
	}
	for j := range t.feats {
		f := &t.feats[j]
		cell := f.cells[int(vals[f.pos])*planes:][:planes]
		out := t.miss[j*planes:][:planes]
		for p := range out {
			out[p] = ^cell[p]
		}
	}
	// Plane by plane from here, so each plane's verdict stays in a
	// register across the features.
	cover := t.cover[:planes]
	var live byte
	for p := range cover {
		c := seededMask(n, p)
		for j := range t.feats {
			c &^= t.miss[j*planes+p]
		}
		cover[p] = c
		live |= c
	}
	if live == 0 {
		// No slot of any plane admits every nominal value.
		dist = 1
		for p := range cover {
			var once, twice byte
			for j := range t.feats {
				m := t.miss[j*planes+p]
				twice |= once & m
				once |= m
			}
			c := seededMask(n, p) & once &^ twice
			cover[p] = c
			live |= c
		}
		if live == 0 {
			return -1
		}
	}
	live = 0
	for p := range cover {
		c := cover[p]
		for i := range t.spans {
			f := &t.spans[i]
			c &= f.cells[int(vals[f.pos])*planes+p]
		}
		cover[p] = c
		live |= c
	}
	if live == 0 {
		return -1
	}
	return dist
}

// seededMask is plane p's share of the first n slots.
func seededMask(n, p int) byte { return byte(uint(1)<<min(max(n-p*8, 0), 8) - 1) }

// missCounts sums the gathered misses of plane p's eight slots over the
// nominal features, for the scan that runs when the table has no answer
// for the packet: byte lane b of the result counts the features at which slot
// p*8+b misses.
func (t *memberTable) missCounts(p int) uint64 {
	var n uint64
	for ; p < len(t.miss); p += t.planes {
		n += spreadBits(t.miss[p])
	}
	return n
}

// spreadBits moves bit i of b to the bottom of byte lane i.
func spreadBits(b byte) uint64 {
	const lsb = 0x0101010101010101
	lanes := uint64(b) * lsb & 0x8040201008040201 // lane i is nonzero iff bit i
	return (lanes + 0x7f*lsb) >> 7 & lsb
}

// misses reports whether slot does not admit the gathered packet's value
// at nominal feature j, as 0 or 1.
func (t *memberTable) misses(slot, j int) byte {
	return t.miss[j*t.planes+slot>>3] >> (slot & 7) & 1
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
