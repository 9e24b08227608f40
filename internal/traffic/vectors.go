package traffic

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// VectorClass distinguishes reflection/amplification vectors (traffic
// reflected off open servers, hence highly regular) from exploitation
// vectors (directly generated floods with randomized fields). Fig. 9a
// splits clustering performance along this axis.
type VectorClass uint8

// Vector classes.
const (
	Reflection VectorClass = iota
	Exploitation
)

// String names the class.
func (c VectorClass) String() string {
	if c == Exploitation {
		return "exploitation-based"
	}
	return "reflection-based"
}

// Vector is one DDoS attack vector with its header signature. The
// signatures mirror the CICDDoS-2019 taxonomy: reflection vectors fix
// the reflector service port and use amplified payloads; exploitation
// vectors randomize ports and sizes.
type Vector struct {
	Name  string
	Class VectorClass
	// Spec is the packet template; the victim address/port and label
	// are filled in by Flood.
	Spec FlowSpec
}

// Vectors returns the paper's nine CICDDoS attack vectors in Fig. 9a
// order. Victim fields (DstIP/DstPort) are placeholders overridden by
// Flood.
func Vectors() []Vector {
	return []Vector{
		// Reflection: fixed service source port, large responses,
		// moderate reflector pools (randomized low source-host bits).
		{Name: "NTP", Class: Reflection, Spec: FlowSpec{
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{203, 0, 113, 0}, SrcPort: 123,
			Size: 468, TTL: 54, TTLJitter: 8, SrcHostBits: 6, DstPort: 80,
		}},
		{Name: "DNS", Class: Reflection, Spec: FlowSpec{
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{198, 51, 100, 0}, SrcPort: 53,
			Size: 512, SizeJitter: 120, TTL: 57, TTLJitter: 8, SrcHostBits: 7, DstPort: 80,
		}},
		{Name: "MSSQL", Class: Reflection, Spec: FlowSpec{
			// MSSQL reflections arrive from several service ports,
			// which the paper calls out as the reason its purity is
			// lowest among reflection vectors.
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{192, 0, 2, 0},
			SrcPortChoices: []uint16{1434, 1433, 4022, 2433, 14330, 21433, 31433, 41433},
			Size:           629, SizeJitter: 300, TTL: 48, TTLJitter: 16, SrcHostBits: 9, DstPort: 80,
		}},
		{Name: "NetBIOS", Class: Reflection, Spec: FlowSpec{
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{203, 0, 114, 0}, SrcPort: 137,
			Size: 228, TTL: 52, TTLJitter: 8, SrcHostBits: 6, DstPort: 80,
		}},
		{Name: "SNMP", Class: Reflection, Spec: FlowSpec{
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{198, 51, 101, 0}, SrcPort: 161,
			Size: 1432, SizeJitter: 68, TTL: 55, TTLJitter: 8, SrcHostBits: 6, DstPort: 80,
		}},
		{Name: "SSDP", Class: Reflection, Spec: FlowSpec{
			// SSDP devices answer from ephemeral ports: high source-
			// port variance, the other hard reflection vector.
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{192, 0, 3, 0}, RandomSrcPort: true,
			Size: 310, SizeJitter: 60, TTL: 49, TTLJitter: 16, SrcHostBits: 9, DstPort: 80,
		}},
		{Name: "TFTP", Class: Reflection, Spec: FlowSpec{
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{203, 0, 115, 0}, SrcPort: 69,
			Size: 516, TTL: 53, TTLJitter: 8, SrcHostBits: 6, DstPort: 80,
		}},
		// Exploitation: spoofed sources, randomized ports and sizes.
		{Name: "UDP", Class: Exploitation, Spec: FlowSpec{
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{10, 0, 0, 0}, SrcHostBits: 24,
			RandomSrcPort: true, RandomDstPort: true, Size: 100, SizeJitter: 1300, TTL: 32, TTLJitter: 96,
		}},
		{Name: "UDPLag", Class: Exploitation, Spec: FlowSpec{
			Protocol: packet.ProtoUDP, SrcIP: packet.V4Addr{10, 64, 0, 0}, SrcHostBits: 22,
			RandomSrcPort: true, Size: 60, SizeJitter: 20, TTL: 32, TTLJitter: 96,
		}},
	}
}

// SYNFlood is the classic TCP exploitation vector used by the morphing
// pulse-wave scenario.
func SYNFlood() Vector {
	return Vector{Name: "SYN", Class: Exploitation, Spec: FlowSpec{
		Protocol: packet.ProtoTCP, SrcIP: packet.V4Addr{10, 128, 0, 0}, SrcHostBits: 24,
		RandomSrcPort: true, DstPort: 80, Size: 40, TTL: 32, TTLJitter: 96,
		Flags: packet.FlagSYN,
	}}
}

// Flood emits the vector at rateBits toward the victim for
// [start, end). The packets carry Malicious labels and the vector's
// name.
func (v Vector) Flood(start, end eventsim.Time, rateBits float64, victim packet.V4Addr, victimPort uint16, seed int64) Source {
	spec := v.Spec
	spec.DstIP = victim
	if victimPort != 0 {
		spec.DstPort = victimPort
		spec.RandomDstPort = false
	}
	spec.Label = packet.Malicious
	spec.Vector = v.Name
	return NewCBR(start, end, rateBits, spec.Factory(seed))
}
