package packet

import "encoding/binary"

// Fused decode: the wire-speed ingest fast path. Unmarshal materializes
// a full Packet (one heap allocation per packet) and Extract then
// re-reads the struct field by field; at line rate that is two passes
// and an allocation the clusterer never needed. ParseFrame +
// FrameView.Features read the clustering features straight out of the
// raw IPv4+TCP/UDP frame bytes in one pass, with no Packet and no
// allocation.
//
// The framing rules are intentionally bit-identical to Unmarshal:
// ParseFrame accepts exactly the frames Unmarshal accepts (same
// truncation, version, and length checks, same "ports read only when
// the transport header fits inside the IP total length" rule), and
// FrameView.Feature returns exactly what Packet.Value would return for
// the unmarshaled packet. The equivalence is enforced by unit tests and
// a differential fuzzer (fuzz_test.go); Unmarshal+Extract remain as the
// readable reference implementation.

// FrameView is a validated, zero-copy view of one IPv4 frame. It holds
// a reference into the caller's buffer; the buffer must stay unchanged
// (and alive) for as long as the view's accessors are used — e.g. a
// frame yielded by an mmap'd capture stays valid until the mapping is
// closed. The zero FrameView is not valid; obtain views from ParseFrame.
type FrameView struct {
	b     []byte // at least ipv4HeaderLen bytes, version 4
	total uint16 // IP total length, validated <= len(b)
	// sport/dport are pre-read because the transport offset (IHL) is
	// only known after validation; zero when the protocol carries no
	// modeled transport header or the header is truncated, matching
	// Unmarshal's zero-valued Packet fields.
	sport, dport uint16
}

// ParseFrame validates the IPv4 framing of b and returns a zero-copy
// view. It rejects exactly the inputs Unmarshal rejects, returning the
// same sentinel error categories (ErrTooShort, ErrBadVersion,
// ErrBadLength) — unwrapped, so the path allocates nothing on either
// outcome.
func ParseFrame(b []byte) (FrameView, error) {
	if len(b) < ipv4HeaderLen {
		return FrameView{}, ErrTooShort
	}
	if b[0]>>4 != 4 {
		return FrameView{}, ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return FrameView{}, ErrBadLength
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total > len(b) || total < ihl {
		return FrameView{}, ErrBadLength
	}
	v := FrameView{b: b, total: uint16(total)}
	switch Proto(b[9]) {
	case ProtoTCP:
		if total-ihl >= tcpHeaderLen {
			v.sport = binary.BigEndian.Uint16(b[ihl:])
			v.dport = binary.BigEndian.Uint16(b[ihl+2:])
		}
	case ProtoUDP:
		if total-ihl >= udpHeaderLen {
			v.sport = binary.BigEndian.Uint16(b[ihl:])
			v.dport = binary.BigEndian.Uint16(b[ihl+2:])
		}
	}
	return v, nil
}

// Length returns the IP total length (Packet.Length).
func (v *FrameView) Length() uint16 { return v.total }

// Protocol returns the IP protocol number.
func (v *FrameView) Protocol() Proto { return Proto(v.b[9]) }

// SrcPort returns the transport source port (zero when absent).
func (v *FrameView) SrcPort() uint16 { return v.sport }

// DstPort returns the transport destination port (zero when absent).
func (v *FrameView) DstPort() uint16 { return v.dport }

// Bytes returns the underlying frame slice the view was parsed from.
func (v *FrameView) Bytes() []byte { return v.b }

// FlowHash returns the RSS-style flow hash over the frame's 5-tuple,
// identical to FlowHash of the unmarshaled packet. The data plane uses
// it to demux frames to shards so packets of one flow always meet the
// same clusterer.
func (v *FrameView) FlowHash() uint32 {
	h := uint32(fnvOffset32)
	for _, c := range v.b[12:20] { // src then dst address bytes
		h = (h ^ uint32(c)) * fnvPrime32
	}
	h = (h ^ uint32(v.b[9])) * fnvPrime32
	h = (h ^ uint32(v.sport&0xff)) * fnvPrime32
	h = (h ^ uint32(v.sport>>8)) * fnvPrime32
	h = (h ^ uint32(v.dport&0xff)) * fnvPrime32
	h = (h ^ uint32(v.dport>>8)) * fnvPrime32
	return h
}

// FNV-1a parameters shared by FrameView.FlowHash and FlowHash.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// FlowHash is FNV-1a over (src IP, dst IP, proto, sport, dport) of a
// decoded packet — the struct-side twin of FrameView.FlowHash, kept in
// this package so the two can never drift apart.
func FlowHash(p *Packet) uint32 {
	h := uint32(fnvOffset32)
	for _, c := range p.SrcIP {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	for _, c := range p.DstIP {
		h = (h ^ uint32(c)) * fnvPrime32
	}
	h = (h ^ uint32(p.Protocol)) * fnvPrime32
	h = (h ^ uint32(p.SrcPort&0xff)) * fnvPrime32
	h = (h ^ uint32(p.SrcPort>>8)) * fnvPrime32
	h = (h ^ uint32(p.DstPort&0xff)) * fnvPrime32
	h = (h ^ uint32(p.DstPort>>8)) * fnvPrime32
	return h
}

// Feature extracts one feature value straight from the frame bytes,
// bit-identical to Packet.Value on the unmarshaled packet.
func (v *FrameView) Feature(f Feature) uint32 {
	b := v.b
	switch f {
	case FSrcIP:
		return uint32(b[12])<<24 | uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15])
	case FDstIP:
		return uint32(b[16])<<24 | uint32(b[17])<<16 | uint32(b[18])<<8 | uint32(b[19])
	case FSrcIPByte0, FSrcIPByte1, FSrcIPByte2, FSrcIPByte3:
		return uint32(b[12+f-FSrcIPByte0])
	case FDstIPByte0, FDstIPByte1, FDstIPByte2, FDstIPByte3:
		return uint32(b[16+f-FDstIPByte0])
	case FSrcPort:
		return uint32(v.sport)
	case FDstPort:
		return uint32(v.dport)
	case FTTL:
		return uint32(b[8])
	case FLength:
		return uint32(v.total)
	case FID:
		return uint32(binary.BigEndian.Uint16(b[4:6]))
	case FFragOffset:
		return uint32(binary.BigEndian.Uint16(b[6:8]) & 0x1fff)
	case FProtocol:
		return uint32(b[9])
	default:
		return 0
	}
}

// Features fills dst with the view's feature values in set order,
// mirroring FeatureSet.Extract: dst is reused when it has capacity, so
// the zero-alloc fast path passes a buffer of at least len(fs) values.
func (v *FrameView) Features(fs FeatureSet, dst []uint32) []uint32 {
	if cap(dst) < len(fs) {
		dst = make([]uint32, len(fs))
	}
	dst = dst[:len(fs)]
	for i, f := range fs {
		dst[i] = v.Feature(f)
	}
	return dst
}
