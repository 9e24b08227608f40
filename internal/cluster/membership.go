package cluster

import "accturbo/internal/sketch"

// memberTable holds the nominal membership of every cluster, value-major:
// for each nominal feature one byte array in which cell i carries one bit
// per cluster slot, bit c set when cluster c admits cell i. A packet
// therefore learns which clusters admit its value from one load per
// nominal feature, however many clusters there are — the software shape of
// the hardware comparing a packet against all clusters at once (§4).
//
// Exact and Bloom modes differ only in how a value maps to cells. Exact:
// the cell index is the value, one cell per value of the feature's space.
// Bloom: the cells are the filter's bit positions and a value maps to the
// k positions sketch.Bloom would set (sketch.BloomPosition), a cluster
// admitting the value when all k cells carry its bit — so false positives
// and the serialized filter words are bit-identical to one sketch.Bloom
// per (cluster, feature).
//
// A cell is `planes` consecutive bytes (slot c lives in byte c/8, bit
// c%8), so the bits of all clusters for one value share a cache line.
// What the table cannot answer cheaply — which cells does cluster c
// admit — is kept beside it: a per-(slot, feature) list of the cells
// carrying the slot's bit, in admission order. Enumeration (snapshots,
// exhaustive merges) and clearing a slot walk that list, so recycling a
// slot or reseeding costs in proportion to what was admitted, not to the
// table size, and the lists' backing arrays are reused.
type memberTable struct {
	slots  int // cluster slots the cells have bits for
	planes int // bytes per cell: ceil(slots/8)
	hashes int // Bloom positions per value; 0 in exact mode
	feats  []memberFeat

	// Indexed slot*len(feats)+j for the j-th nominal feature.
	lists [][]uint32 // cells carrying the slot's bit
	card  []int      // values admitted (== len(list) in exact mode)

	// miss is the per-packet gather: miss[j*planes+p] has bit b set when
	// slot p*8+b does NOT admit the packet's value at nominal feature j.
	miss []byte
	// nmiss sums the same gather over the nominal features: byte lane b
	// of nmiss[p] counts the features at which slot p*8+b misses.
	nmiss []uint64
}

// memberFeat is one nominal feature's share of the table.
type memberFeat struct {
	pos   int    // position in the configured feature set
	ncell uint64 // value-space size (exact) or filter bits (Bloom)
	cells []byte // ncell*planes bytes; cell i, plane p at i*planes+p
}

// newMemberTable sizes an empty table for the nominal features of cfg
// (defaults applied).
func newMemberTable(cfg *Config) *memberTable {
	t := &memberTable{}
	if cfg.UseBloom {
		t.hashes = cfg.BloomHashes
	}
	for pos, f := range cfg.Features {
		if !f.Nominal() {
			continue
		}
		ncell := uint64(f.MaxValue()) + 1
		if cfg.UseBloom {
			ncell = cfg.BloomBits
		}
		t.feats = append(t.feats, memberFeat{pos: pos, ncell: ncell})
	}
	t.grow(cfg.MaxClusters)
	return t
}

// grow makes room for at least `slots` cluster slots. Admitted cells are
// preserved: when the cell width changes, the cells are rebuilt from the
// lists.
func (t *memberTable) grow(slots int) {
	if slots <= t.slots {
		return
	}
	nn := len(t.feats)
	lists := make([][]uint32, slots*nn)
	copy(lists, t.lists)
	card := make([]int, slots*nn)
	copy(card, t.card)
	filled := t.slots
	t.lists, t.card, t.slots = lists, card, slots

	planes := (slots + 7) / 8
	if planes == t.planes {
		return
	}
	t.planes = planes
	t.miss = make([]byte, nn*planes)
	t.nmiss = make([]uint64, planes)
	for j := range t.feats {
		f := &t.feats[j]
		f.cells = make([]byte, f.ncell*uint64(planes))
		for slot := 0; slot < filled; slot++ {
			p, bit := slot>>3, byte(1)<<(slot&7)
			for _, cell := range lists[slot*nn+j] {
				f.cells[int(cell)*planes+p] |= bit
			}
		}
	}
}

// setCell gives cell the slot's bit at nominal feature j, reporting
// whether it was missing.
func (t *memberTable) setCell(slot, j int, cell uint32) bool {
	b := &t.feats[j].cells[int(cell)*t.planes+slot>>3]
	bit := byte(1) << (slot & 7)
	if *b&bit != 0 {
		return false
	}
	*b |= bit
	l := &t.lists[slot*len(t.feats)+j]
	*l = append(*l, cell)
	return true
}

// hasCell reports whether cell carries the slot's bit at nominal feature j.
func (t *memberTable) hasCell(slot, j int, cell uint32) bool {
	return t.feats[j].cells[int(cell)*t.planes+slot>>3]&(1<<(slot&7)) != 0
}

// admit makes slot admit value v at nominal feature j. A value the slot
// already admits — a Bloom false positive included, as for a sketch.Bloom
// whose Insert is guarded by Contains — changes nothing.
func (t *memberTable) admit(slot, j int, v uint32) {
	added := false
	if t.hashes == 0 {
		added = t.setCell(slot, j, v)
	} else {
		n := t.feats[j].ncell
		for h := 0; h < t.hashes; h++ {
			if t.setCell(slot, j, uint32(sketch.BloomPosition(h, uint64(v), n))) {
				added = true
			}
		}
	}
	if added {
		t.card[slot*len(t.feats)+j]++
	}
}

// cardinality returns how many values slot admits at nominal feature j.
func (t *memberTable) cardinality(slot, j int) int { return t.card[slot*len(t.feats)+j] }

// merge makes dst admit everything src admits (exact mode only: a Bloom
// slot's value count cannot be recovered from its cells).
func (t *memberTable) merge(dst, src int) {
	nn := len(t.feats)
	for j := 0; j < nn; j++ {
		for _, cell := range t.lists[src*nn+j] {
			if t.setCell(dst, j, cell) {
				t.card[dst*nn+j]++
			}
		}
	}
}

// unionExtra counts the cells of slot b at nominal feature j that slot a
// does not carry — the growth of a's cardinality if b were merged into it.
func (t *memberTable) unionExtra(a, b, j int) int {
	extra := 0
	for _, cell := range t.lists[b*len(t.feats)+j] {
		if !t.hasCell(a, j, cell) {
			extra++
		}
	}
	return extra
}

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
		t.card[slot*nn+j] = 0
	}
}

// bitmap ORs the cells slot carries at nominal feature j into bm as a
// bitmap over cell indices — the words of the equivalent sketch.Bloom in
// Bloom mode, the ascending value set in exact mode. bm must hold
// ceil(ncell/64) zeroed words.
func (t *memberTable) bitmap(slot, j int, bm []uint64) {
	for _, cell := range t.lists[slot*len(t.feats)+j] {
		bm[cell>>6] |= 1 << (cell & 63)
	}
}

// gather fills t.miss and t.nmiss for one packet's feature values: one
// cell load per nominal feature in exact mode, k AND-ed loads in Bloom
// mode, answering for every slot at once.
func (t *memberTable) gather(vals []uint32) {
	planes := t.planes
	if planes == 1 && t.hashes == 0 {
		// The deployed shape (up to eight slots, exact sets) without the
		// per-plane and per-hash loops below, which cost it 8–12 ns a
		// packet.
		miss := t.miss[:len(t.feats)]
		var n uint64
		for j := range miss {
			f := &t.feats[j]
			m := ^f.cells[vals[f.pos]]
			miss[j] = m
			n += spreadBits(m)
		}
		t.nmiss[0] = n
		return
	}
	nmiss := t.nmiss[:planes]
	clear(nmiss)
	for j := range t.feats {
		f := &t.feats[j]
		v := vals[f.pos]
		out := t.miss[j*planes:][:planes]
		// The first cell: the value itself, or its first Bloom position.
		i := int(v)
		if t.hashes > 0 {
			i = int(sketch.BloomPosition(0, uint64(v), f.ncell))
		}
		cell := f.cells[i*planes:][:planes]
		for p := range out {
			out[p] = ^cell[p]
		}
		for h := 1; h < t.hashes; h++ {
			i = int(sketch.BloomPosition(h, uint64(v), f.ncell))
			cell = f.cells[i*planes:][:planes]
			for p := range out {
				out[p] |= ^cell[p]
			}
		}
		for p := range out {
			nmiss[p] += spreadBits(out[p])
		}
	}
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
