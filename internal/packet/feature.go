package packet

import "fmt"

// Feature identifies a packet-header field usable as a clustering
// dimension (§4.1 of the paper). Features are either ordinal (value
// proximity implies similarity: addresses, lengths, TTLs) or nominal
// (proximity is meaningless: ports, protocol numbers).
type Feature uint8

// Features supported by the extractor. The *Byte features expose one
// octet of an address, matching the paper's simulation configuration
// ("each byte of the ip.src and ip.dst") and the hardware configuration
// ("the last two bytes of the IP destination address").
const (
	FSrcIP Feature = iota // full source address as uint32, ordinal
	FDstIP                // full destination address as uint32, ordinal
	FSrcIPByte0
	FSrcIPByte1
	FSrcIPByte2
	FSrcIPByte3
	FDstIPByte0
	FDstIPByte1
	FDstIPByte2
	FDstIPByte3
	FSrcPort // nominal
	FDstPort // nominal
	FTTL
	FLength
	FID
	FFragOffset
	FProtocol // nominal
	numFeatures
)

// NumFeatures is the count of distinct Feature values.
const NumFeatures = int(numFeatures)

var featureNames = [...]string{
	FSrcIP:      "ip.src",
	FDstIP:      "ip.dst",
	FSrcIPByte0: "ip.src[0]",
	FSrcIPByte1: "ip.src[1]",
	FSrcIPByte2: "ip.src[2]",
	FSrcIPByte3: "ip.src[3]",
	FDstIPByte0: "ip.dst[0]",
	FDstIPByte1: "ip.dst[1]",
	FDstIPByte2: "ip.dst[2]",
	FDstIPByte3: "ip.dst[3]",
	FSrcPort:    "sport",
	FDstPort:    "dport",
	FTTL:        "ip.ttl",
	FLength:     "ip.len",
	FID:         "ip.id",
	FFragOffset: "ip.f_offset",
	FProtocol:   "ip.proto",
}

// String returns the paper's name for the feature (e.g. "ip.ttl").
func (f Feature) String() string {
	if int(f) < len(featureNames) {
		return featureNames[f]
	}
	return fmt.Sprintf("feature(%d)", uint8(f))
}

// Nominal reports whether the feature is nominal: value proximity does
// not imply packet similarity. Ports and the protocol number are
// nominal; everything else modeled here is ordinal (§4.1).
func (f Feature) Nominal() bool {
	switch f {
	case FSrcPort, FDstPort, FProtocol:
		return true
	default:
		return false
	}
}

// Bits returns the width of the feature's value space in bits, used to
// size distance normalizations and Anime cost computations.
func (f Feature) Bits() int {
	switch f {
	case FSrcIP, FDstIP:
		return 32
	case FSrcPort, FDstPort, FLength, FID:
		return 16
	case FFragOffset:
		return 13
	default:
		return 8
	}
}

// MaxValue returns the largest value the feature can take.
func (f Feature) MaxValue() uint32 {
	return uint32(1)<<f.Bits() - 1
}

// FeatureSet is an ordered list of clustering dimensions.
type FeatureSet []Feature

// Extract fills dst with the packet's feature values in set order and
// returns it; a Feature outside the enumeration yields 0. dst is reused
// when it has capacity for len(fs) values; a nil or short dst is
// replaced by a fresh allocation, so callers on the zero-alloc fast
// path should pass a buffer of at least len(fs) capacity.
func (fs FeatureSet) Extract(p *Packet, dst []uint32) []uint32 {
	if cap(dst) < len(fs) {
		dst = make([]uint32, len(fs))
	}
	dst = dst[:len(fs)]
	for i, f := range fs {
		var v uint32
		switch f {
		case FSrcIP:
			v = p.SrcIP.Uint32()
		case FDstIP:
			v = p.DstIP.Uint32()
		case FSrcIPByte0, FSrcIPByte1, FSrcIPByte2, FSrcIPByte3:
			v = uint32(p.SrcIP[f-FSrcIPByte0])
		case FDstIPByte0, FDstIPByte1, FDstIPByte2, FDstIPByte3:
			v = uint32(p.DstIP[f-FDstIPByte0])
		case FSrcPort:
			v = uint32(p.SrcPort)
		case FDstPort:
			v = uint32(p.DstPort)
		case FTTL:
			v = uint32(p.TTL)
		case FLength:
			v = uint32(p.Length)
		case FID:
			v = uint32(p.ID)
		case FFragOffset:
			v = uint32(p.FragOffset)
		case FProtocol:
			v = uint32(p.Protocol)
		}
		dst[i] = v
	}
	return dst
}

// DefaultSimulationFeatures is the paper's §8 default: each byte of the
// source and destination addresses, both ports, TTL, and total length.
func DefaultSimulationFeatures() FeatureSet {
	return FeatureSet{
		FSrcIPByte0, FSrcIPByte1, FSrcIPByte2, FSrcIPByte3,
		FDstIPByte0, FDstIPByte1, FDstIPByte2, FDstIPByte3,
		FSrcPort, FDstPort, FTTL, FLength,
	}
}

// HardwareFeatures is the paper's §7.1 Tofino configuration: the last
// two bytes of the destination address plus both ports.
func HardwareFeatures() FeatureSet {
	return FeatureSet{FDstIPByte2, FDstIPByte3, FSrcPort, FDstPort}
}
