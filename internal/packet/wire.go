package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire-format support: MarshalTo renders a Packet into real IPv4+TCP/UDP
// bytes (with correct checksums over the headers) and Unmarshal parses
// them back. The simulator itself works on decoded packets; the wire
// format backs the pcap reader/writer and the trace tooling.

// Header sizes in bytes.
const (
	ipv4HeaderLen = 20
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
)

// Errors MarshalTo (ErrTooShort) and Unmarshal return.
var (
	ErrTooShort   = errors.New("packet: buffer too short")
	ErrBadVersion = errors.New("packet: not an IPv4 packet")
	ErrBadLength  = errors.New("packet: inconsistent length fields")
)

// WireLen returns the number of bytes MarshalTo writes: the packet's
// total IP length, but at least the space needed for its headers.
func (p *Packet) WireLen() int { return max(int(p.Length), p.headerLen()) }

func (p *Packet) headerLen() int {
	switch p.Protocol {
	case ProtoTCP:
		return ipv4HeaderLen + tcpHeaderLen
	case ProtoUDP:
		return ipv4HeaderLen + udpHeaderLen
	default:
		return ipv4HeaderLen
	}
}

// MarshalTo renders the packet in IPv4 wire format into buf, which must
// hold WireLen() bytes, and allocates nothing. Payload bytes beyond the
// headers are zero, so the TCP/UDP checksum is summed over the headers
// alone. No decoder reads it: TestTransportChecksum holds it to the
// whole-segment oracle, and CI pins the bytes of generated captures.
func (p *Packet) MarshalTo(buf []byte) error {
	n := p.WireLen()
	if len(buf) < n {
		return fmt.Errorf("%w: need %d bytes, have %d", ErrTooShort, n, len(buf))
	}
	b := buf[:n]
	clear(b)

	// IPv4 header.
	b[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(b[2:4], uint16(n))
	binary.BigEndian.PutUint16(b[4:6], p.ID)
	binary.BigEndian.PutUint16(b[6:8], p.FragOffset&0x1fff)
	b[8] = p.TTL
	b[9] = uint8(p.Protocol)
	copy(b[12:16], p.SrcIP[:])
	copy(b[16:20], p.DstIP[:])
	binary.BigEndian.PutUint16(b[10:12], checksum(b[:ipv4HeaderLen], 0))

	// Transport header.
	switch p.Protocol {
	case ProtoTCP:
		t := b[ipv4HeaderLen:]
		binary.BigEndian.PutUint16(t[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(t[2:4], p.DstPort)
		t[12] = 5 << 4 // data offset: 5 words
		t[13] = p.Flags
		binary.BigEndian.PutUint16(t[14:16], 65535) // window
		binary.BigEndian.PutUint16(t[16:18], transportChecksum(p.SrcIP, p.DstIP, uint8(ProtoTCP), t[:tcpHeaderLen], n-ipv4HeaderLen))
	case ProtoUDP:
		u := b[ipv4HeaderLen:]
		binary.BigEndian.PutUint16(u[0:2], p.SrcPort)
		binary.BigEndian.PutUint16(u[2:4], p.DstPort)
		binary.BigEndian.PutUint16(u[4:6], uint16(n-ipv4HeaderLen))
		binary.BigEndian.PutUint16(u[6:8], transportChecksum(p.SrcIP, p.DstIP, uint8(ProtoUDP), u[:udpHeaderLen], n-ipv4HeaderLen))
	}
	return nil
}

// Unmarshal parses an IPv4 packet from wire format. Simulation metadata
// (Label, Vector, FlowID) is left at its zero value.
func Unmarshal(b []byte) (*Packet, error) {
	if len(b) < ipv4HeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooShort, len(b))
	}
	if b[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return nil, fmt.Errorf("%w: IHL %d", ErrBadLength, ihl)
	}
	total := binary.BigEndian.Uint16(b[2:4])
	if int(total) > len(b) || int(total) < ihl {
		return nil, fmt.Errorf("%w: total length %d of %d captured", ErrBadLength, total, len(b))
	}
	p := &Packet{
		Length:     total,
		ID:         binary.BigEndian.Uint16(b[4:6]),
		FragOffset: binary.BigEndian.Uint16(b[6:8]) & 0x1fff,
		TTL:        b[8],
		Protocol:   Proto(b[9]),
		SrcIP:      V4Addr(b[12:16]),
		DstIP:      V4Addr(b[16:20]),
	}
	tr := b[ihl:total]
	switch p.Protocol {
	case ProtoTCP:
		if len(tr) >= tcpHeaderLen {
			p.SrcPort = binary.BigEndian.Uint16(tr[0:2])
			p.DstPort = binary.BigEndian.Uint16(tr[2:4])
			p.Flags = tr[13]
		}
	case ProtoUDP:
		if len(tr) >= udpHeaderLen {
			p.SrcPort = binary.BigEndian.Uint16(tr[0:2])
			p.DstPort = binary.BigEndian.Uint16(tr[2:4])
		}
	}
	return p, nil
}

// checksum computes the RFC 1071 Internet checksum of b on top of the
// partial sum sum, assuming the checksum field within b is zero.
func checksum(b []byte, sum uint32) uint16 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// transportChecksum computes the TCP/UDP checksum, IPv4 pseudo-header
// included, of a segLen-byte segment that is hdr (checksum field zeroed)
// followed by zeros, which add nothing: it sums the headers alone.
func transportChecksum(src, dst V4Addr, proto uint8, hdr []byte, segLen int) uint16 {
	sum := checksum(hdr, uint32(src[0])<<8+uint32(src[1])+uint32(src[2])<<8+uint32(src[3])+
		uint32(dst[0])<<8+uint32(dst[1])+uint32(dst[2])<<8+uint32(dst[3])+uint32(proto)+uint32(uint16(segLen)))
	if sum == 0 && proto == uint8(ProtoUDP) {
		sum = 0xffff // UDP: zero checksum means "no checksum"
	}
	return sum
}
