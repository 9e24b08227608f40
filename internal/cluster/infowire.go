package cluster

import (
	"fmt"

	"accturbo/internal/frame"
)

// infoMinBytes is the encoded size of an Info with no ranges and no
// cardinalities: what AppendInfos writes per slot at the very least.
const infoMinBytes = 4 + 1 + 4 + 4 + 5*8 + 8

// AppendInfos writes a cluster snapshot — the []Info returned by
// Online.Snapshot, Dataplane.Snapshot or MergeSnapshots — to e as a
// count followed by one record per slot. This is the per-Info layout of
// every format that carries one: the fleet's MsgSnapshot payload and the
// deployed Decision inside a defense snapshot. Unlike Online.Marshal
// (which captures the clusterer's full learned state for restore), it is
// the *observable* view — geometry, cardinalities and window counters —
// which is all slot-wise merging needs, and it carries no configuration
// fingerprint so nodes with identical slot tiling but independent
// clusterers interoperate.
//
// Inactive slots are encoded too (one bool), so slot positions survive
// the trip and MergeSnapshots on the far side sees the same tiling the
// sender saw. Framing, versioning and checksums live one layer up: an
// Info section never travels alone.
func AppendInfos(out *frame.Enc, infos []Info) {
	e := *out // by value, so the appends below stay in registers
	e.U32(uint32(len(infos)))
	for i := range infos {
		in := &infos[i]
		e.U32(uint32(in.ID))
		e.Bool(in.Active)
		e.U32(uint32(len(in.Ranges)))
		for _, r := range in.Ranges {
			e.U32(r.Min)
			e.U32(r.Max)
		}
		e.U32(uint32(len(in.NominalCardinality)))
		for _, c := range in.NominalCardinality {
			e.U32(uint32(c))
		}
		e.U64(in.Packets)
		e.U64(in.Bytes)
		e.U64(in.TotalPackets)
		e.U64(in.Benign)
		e.U64(in.Malicious)
		e.F64(in.Size)
	}
	*out = e
}

// InfosLen is the number of bytes AppendInfos writes for infos, for a
// caller that sizes its buffer once.
func InfosLen(infos []Info) int {
	n := 4
	for i := range infos {
		n += infoMinBytes + 8*len(infos[i].Ranges) + 4*len(infos[i].NominalCardinality)
	}
	return n
}

// carve cuts n elements off *slab. The slab is made on first use, for
// slots slots of n elements but never more than fit, the most the unread
// bytes could hold; a request it cannot serve gets its own slice, so a
// hostile section that varies its counts costs what it sent and no more.
// The cut is capped at its length: an append to one slot's slice cannot
// reach the next slot's.
func carve[T any](slab *[]T, n, slots, fit int) []T {
	if *slab == nil {
		*slab = make([]T, min(n*slots, fit))
	}
	if len(*slab) < n {
		return make([]T, n)
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// ReadInfos reads what AppendInfos wrote. The result is freshly
// allocated and shares no memory with the input; a short or hostile
// section is left latched in d and yields nil. Every slot of a real
// snapshot has the same feature count, so the slots' Ranges and
// NominalCardinality come from one slab each (carve).
func ReadInfos(d *frame.Dec) []Info {
	out := make([]Info, d.Count(infoMinBytes))
	var ranges []Range
	var cards []int
	for i := range out {
		in := &out[i]
		in.ID = int(d.U32())
		in.Active = d.Bool()
		if n := d.Count(8); n > 0 {
			in.Ranges = carve(&ranges, n, len(out)-i, d.Len()/8)
			for f := range in.Ranges {
				in.Ranges[f].Min = d.U32()
				in.Ranges[f].Max = d.U32()
			}
		}
		if n := d.Count(4); n > 0 {
			in.NominalCardinality = carve(&cards, n, len(out)-i, d.Len()/4)
			for f := range in.NominalCardinality {
				in.NominalCardinality[f] = int(d.U32())
			}
		}
		in.Packets = d.U64()
		in.Bytes = d.U64()
		in.TotalPackets = d.U64()
		in.Benign = d.U64()
		in.Malicious = d.U64()
		in.Size = d.F64()
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

// MarshalInfos is AppendInfos into a fresh buffer.
func MarshalInfos(infos []Info) []byte {
	var e frame.Enc
	AppendInfos(&e, infos)
	return e.B
}

// UnmarshalInfos is ReadInfos over a whole buffer: truncation, a count
// the buffer cannot hold and trailing bytes all fail with an error and
// no partial result.
func UnmarshalInfos(data []byte) ([]Info, error) {
	d := frame.NewDec(data)
	infos := ReadInfos(&d)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("cluster: info snapshot: %w", err)
	}
	return infos, nil
}
