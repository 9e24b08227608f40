package traffic

import (
	"math/rand"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// FlowSpec describes a fixed template from which factories stamp
// packets. Zero-valued randomization knobs leave the corresponding
// field constant.
type FlowSpec struct {
	SrcIP    packet.V4Addr
	DstIP    packet.V4Addr
	Protocol packet.Proto
	SrcPort  uint16
	DstPort  uint16
	TTL      uint8
	Size     uint16 // total IP length in bytes
	Flags    uint8  // TCP only
	Label    packet.Label
	Vector   string
	FlowID   uint32

	// Randomization knobs (applied per packet with the factory's RNG).

	// RandomizeSrcHost draws the last SrcHostBits of the source
	// address uniformly (source spoofing / reflector pools).
	SrcHostBits int
	// DstHostBits does the same for the destination (carpet bombing
	// uses 8: a /24).
	DstHostBits int
	// RandomSrcPort / RandomDstPort draw the port uniformly from
	// [1024, 65536).
	RandomSrcPort bool
	RandomDstPort bool
	// SrcPortChoices, when non-empty, draws the source port from this
	// set (vectors that reflect off several services).
	SrcPortChoices []uint16
	// SizeJitter adds a uniform value in [0, SizeJitter) to Size.
	SizeJitter int
	// TTLJitter adds a uniform value in [0, TTLJitter) to TTL.
	TTLJitter int
}

// Factory returns a Factory stamping packets from the spec using a
// deterministic RNG derived from seed. The whole-struct assignment
// overwrites every field of dst, so recycled packets carry no state
// from their previous life.
func (s FlowSpec) Factory(seed int64) Factory {
	rng := rand.New(rand.NewSource(seed))
	spec := s
	return func(i uint64, _ eventsim.Time, p *packet.Packet) {
		*p = packet.Packet{
			SrcIP:    spec.SrcIP,
			DstIP:    spec.DstIP,
			Protocol: spec.Protocol,
			SrcPort:  spec.SrcPort,
			DstPort:  spec.DstPort,
			TTL:      spec.TTL,
			Length:   spec.Size,
			Flags:    spec.Flags,
			ID:       uint16(i),
			Label:    spec.Label,
			Vector:   spec.Vector,
			FlowID:   spec.FlowID,
		}
		if spec.SrcHostBits > 0 {
			p.SrcIP = randomizeHost(rng, spec.SrcIP, spec.SrcHostBits)
		}
		if spec.DstHostBits > 0 {
			p.DstIP = randomizeHost(rng, spec.DstIP, spec.DstHostBits)
		}
		if spec.RandomSrcPort {
			p.SrcPort = ephemeralPort(rng)
		}
		if len(spec.SrcPortChoices) > 0 {
			p.SrcPort = spec.SrcPortChoices[rng.Intn(len(spec.SrcPortChoices))]
		}
		if spec.RandomDstPort {
			p.DstPort = ephemeralPort(rng)
		}
		if spec.SizeJitter > 0 {
			p.Length = spec.Size + uint16(rng.Intn(spec.SizeJitter))
		}
		if spec.TTLJitter > 0 {
			p.TTL = spec.TTL + uint8(rng.Intn(spec.TTLJitter))
		}
	}
}

func ephemeralPort(rng *rand.Rand) uint16 {
	return uint16(1024 + rng.Intn(65536-1024))
}

// randomizeHost replaces the low `bits` host part of base with a
// random value.
func randomizeHost(rng *rand.Rand, base packet.V4Addr, bits int) packet.V4Addr {
	if bits > 32 {
		bits = 32
	}
	v := base.Uint32()
	mask := uint32(1)<<bits - 1
	v = (v &^ mask) | (rng.Uint32() & mask)
	return packet.V4AddrFromUint32(v)
}
