// Package packet models network packets for the ACC-Turbo simulator.
//
// The design borrows from gopacket: packets are decoded into typed layers
// (IPv4, TCP, UDP), expose Flow/Endpoint keys for map lookups, and can be
// serialized to and parsed from real wire format. On top of that, the
// package adds the feature view used by ACC-Turbo's online clustering
// (§4 of the paper): every packet is a vector of ordinal and nominal
// feature values extracted from its headers.
//
// Ground-truth labels (benign vs attack, and the attack vector) ride
// along for evaluation accounting only. Defense code must never branch
// on them; the simulator enforces this by handing defenses a view that
// excludes labels.
package packet

import "fmt"

// Proto is an IP protocol number.
type Proto uint8

// IP protocol numbers used by the simulator.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns the conventional name of the protocol.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Label is the ground-truth class of a packet. It exists for evaluation
// only: purity/recall metrics, ideal schedulers, and per-class
// throughput accounting.
type Label uint8

// Ground-truth labels.
const (
	// Benign marks background traffic.
	Benign Label = iota
	// Malicious marks attack traffic.
	Malicious
)

// String returns "benign" or "malicious".
func (l Label) String() string {
	if l == Malicious {
		return "malicious"
	}
	return "benign"
}

// TCP flag bits, matching the wire format.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
	FlagURG uint8 = 1 << 5
)

// Packet is a decoded packet together with simulation metadata.
//
// Header fields follow IPv4/TCP/UDP semantics. Length is the total IP
// length in bytes (header + payload) and is the value used for link
// serialization times and byte counters.
type Packet struct {
	// IPv4 header fields.
	SrcIP      V4Addr
	DstIP      V4Addr
	Length     uint16 // total length, bytes
	ID         uint16 // identification
	FragOffset uint16 // fragment offset, 13 bits
	TTL        uint8
	Protocol   Proto

	// Transport header fields (TCP/UDP). Zero for other protocols.
	SrcPort uint16
	DstPort uint16
	Flags   uint8 // TCP flags; zero for UDP

	// Simulation metadata (not part of the wire format).

	// Label is the ground-truth class, for evaluation only.
	Label Label
	// Vector names the attack vector that generated the packet
	// (e.g. "NTP", "SSDP"); empty for benign traffic.
	Vector string
	// FlowID is a generator-assigned identifier of the flow the packet
	// belongs to; used by sinks to account per-flow statistics.
	FlowID uint32
	// Seq is a per-flow arrival sequence number assigned by the
	// simulator at the bottleneck (not part of the wire format); sinks
	// use it to detect reordering introduced by priority changes.
	Seq uint64

	// pooled marks a packet currently resting in a Pool's free list; it
	// exists to turn double releases into panics (see Pool.Put).
	pooled bool
}

// Size returns the packet's wire size in bytes, as used for
// serialization-time and byte-throughput computations.
func (p *Packet) Size() int { return int(p.Length) }

// Endpoint identifies one side of a transport conversation.
type Endpoint struct {
	Addr V4Addr
	Port uint16
}

// String formats the endpoint as "addr:port".
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Flow is the canonical 5-tuple key of a packet, usable as a map key.
type Flow struct {
	Src, Dst Endpoint
	Protocol Proto
}

// Flow returns the packet's 5-tuple.
func (p *Packet) Flow() Flow {
	return Flow{
		Src:      Endpoint{Addr: p.SrcIP, Port: p.SrcPort},
		Dst:      Endpoint{Addr: p.DstIP, Port: p.DstPort},
		Protocol: p.Protocol,
	}
}

// String formats the flow as "proto src -> dst".
func (f Flow) String() string {
	return fmt.Sprintf("%s %s -> %s", f.Protocol, f.Src, f.Dst)
}

// Reverse returns the flow with source and destination swapped.
func (f Flow) Reverse() Flow {
	return Flow{Src: f.Dst, Dst: f.Src, Protocol: f.Protocol}
}

// V4 builds an address from four IPv4 octets. It is a convenience for
// generators and tests.
func V4(a, b, c, d byte) V4Addr { return V4Addr{a, b, c, d} }

// V4Addr is an IPv4 address as four octets in network order: what the
// wire carries, the address features read and traffic specs spell as
// composite literals ({10, 0, 0, 1}). The zero value is 0.0.0.0.
type V4Addr [4]byte

// As4 returns the four octets.
func (a V4Addr) As4() [4]byte { return a }

// String formats the address as a dotted quad.
func (a V4Addr) String() string { return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3]) }

// Uint32 returns the address as a big-endian integer.
func (a V4Addr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// V4AddrFromUint32 is the inverse of Uint32.
func V4AddrFromUint32(v uint32) V4Addr {
	return V4Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// String gives a compact one-line description of the packet.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s:%d -> %s:%d len=%d ttl=%d (%s)",
		p.Protocol, p.SrcIP, p.SrcPort, p.DstIP, p.DstPort, p.Length, p.TTL, p.Label)
}

// Clone returns a deep copy of the packet. Packet contains no reference
// types besides the Vector string (which is immutable), so a shallow
// copy is a deep copy; Clone exists to make call sites explicit.
func (p *Packet) Clone() *Packet {
	q := *p
	// The copy is a free-standing packet, not pool-resident.
	q.pooled = false
	return &q
}
