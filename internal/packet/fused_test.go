package packet

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// fusedTestFrames builds a corpus of wire frames covering the decode
// edge cases: plain TCP/UDP, non-transport protocols, IP options
// (IHL > 5), truncated transport headers, trailing capture bytes past
// the IP total length, and boundary fragment/ID values.
func fusedTestFrames(t testing.TB) [][]byte {
	t.Helper()
	var frames [][]byte
	add := func(p *Packet) {
		wire, err := marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, wire)
	}
	add(&Packet{SrcIP: V4(10, 0, 1, 2), DstIP: V4(192, 168, 3, 4), Length: 64,
		TTL: 64, Protocol: ProtoTCP, SrcPort: 443, DstPort: 51515, Flags: FlagSYN})
	add(&Packet{SrcIP: V4(1, 2, 3, 4), DstIP: V4(5, 6, 7, 8), Length: 1500,
		TTL: 1, Protocol: ProtoUDP, SrcPort: 123, DstPort: 123})
	add(&Packet{SrcIP: V4(255, 255, 255, 255), DstIP: V4(0, 0, 0, 0), Length: 20,
		TTL: 255, Protocol: ProtoICMP, ID: 0xffff, FragOffset: 0x1fff})
	add(&Packet{SrcIP: V4(172, 16, 0, 1), DstIP: V4(172, 16, 0, 2), Length: 28,
		TTL: 17, Protocol: ProtoUDP, SrcPort: 65535, DstPort: 1})

	// IHL = 6 (one option word): hand-built, UDP header after options.
	opt := make([]byte, 36)
	opt[0] = 0x46
	binary.BigEndian.PutUint16(opt[2:4], 36)
	opt[8] = 9
	opt[9] = byte(ProtoUDP)
	copy(opt[12:16], []byte{9, 8, 7, 6})
	copy(opt[16:20], []byte{5, 4, 3, 2})
	binary.BigEndian.PutUint16(opt[28:30], 1111) // sport after 24-byte header
	binary.BigEndian.PutUint16(opt[30:32], 2222)
	frames = append(frames, opt)

	// TCP whose transport header is truncated by the IP total length:
	// total = 20 + 10 < 20 + tcpHeaderLen, so ports must read as zero.
	trunc := make([]byte, 30)
	trunc[0] = 0x45
	binary.BigEndian.PutUint16(trunc[2:4], 30)
	trunc[8] = 3
	trunc[9] = byte(ProtoTCP)
	binary.BigEndian.PutUint16(trunc[20:22], 7777) // bytes exist, header does not fit
	frames = append(frames, trunc)

	// Valid frame with trailing capture bytes beyond the IP total length.
	extra := make([]byte, 80)
	extra[0] = 0x45
	binary.BigEndian.PutUint16(extra[2:4], 48)
	extra[8] = 60
	extra[9] = byte(ProtoUDP)
	binary.BigEndian.PutUint16(extra[20:22], 53)
	binary.BigEndian.PutUint16(extra[22:24], 33333)
	frames = append(frames, extra)
	return frames
}

// featureSetsUnderTest covers every deployed set plus one with every
// feature, so each Feature arm of the fused switch is exercised.
func featureSetsUnderTest() []FeatureSet {
	all := make(FeatureSet, 0, NumFeatures)
	for f := Feature(0); f < numFeatures; f++ {
		all = append(all, f)
	}
	return []FeatureSet{
		DefaultSimulationFeatures(),
		HardwareFeatures(),
		{FDstIPByte0, FDstIPByte1, FDstIPByte2, FDstIPByte3},
		all,
	}
}

// TestDecodeFeaturesMatchesUnmarshalExtract is the bit-equivalence gate
// on the corpus: for every frame and every feature set, the fused path
// must produce exactly Unmarshal+Extract's values.
func TestDecodeFeaturesMatchesUnmarshalExtract(t *testing.T) {
	for fi, frame := range fusedTestFrames(t) {
		p, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("frame %d: reference rejects corpus frame: %v", fi, err)
		}
		v, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: fused rejects what reference accepts: %v", fi, err)
		}
		for _, fs := range featureSetsUnderTest() {
			want := fs.Extract(p, nil)
			got := v.Features(fs, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("frame %d, feature %v: fused %d, reference %d",
						fi, fs[i], got[i], want[i])
				}
			}
		}
	}
}

// TestParseFrameRejectionParity: the fused validator must reject
// exactly the inputs Unmarshal rejects, with the same sentinel
// category.
func TestParseFrameRejectionParity(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{0x45},
		make([]byte, 19),
		func() []byte { b := make([]byte, 20); b[0] = 0x60; return b }(), // IPv6 version
		func() []byte { b := make([]byte, 20); b[0] = 0x42; return b }(), // IHL 8 < 20
		func() []byte { b := make([]byte, 20); b[0] = 0x4f; return b }(), // IHL 60 > len
		func() []byte { // total length beyond capture
			b := make([]byte, 20)
			b[0] = 0x45
			binary.BigEndian.PutUint16(b[2:4], 21)
			return b
		}(),
		func() []byte { // total length below IHL
			b := make([]byte, 24)
			b[0] = 0x45
			binary.BigEndian.PutUint16(b[2:4], 8)
			return b
		}(),
	}
	for i, b := range bad {
		_, refErr := Unmarshal(b)
		_, fusedErr := ParseFrame(b)
		if (refErr == nil) != (fusedErr == nil) {
			t.Fatalf("case %d: reference err %v, fused err %v", i, refErr, fusedErr)
		}
		for _, sentinel := range []error{ErrTooShort, ErrBadVersion, ErrBadLength} {
			if errors.Is(refErr, sentinel) != errors.Is(fusedErr, sentinel) {
				t.Fatalf("case %d: sentinel %v: reference %v, fused %v", i, sentinel, refErr, fusedErr)
			}
		}
	}
}

// TestFlowHashParity: the frame-side and struct-side flow hashes must
// agree, including on frames whose transport header is truncated.
func TestFlowHashParity(t *testing.T) {
	for fi, frame := range fusedTestFrames(t) {
		p, err := Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if v.FlowHash() != FlowHash(p) {
			t.Fatalf("frame %d: view hash %#x, packet hash %#x", fi, v.FlowHash(), FlowHash(p))
		}
	}
}

// TestFrameViewAccessors pins the remaining accessors against the
// unmarshaled packet.
func TestFrameViewAccessors(t *testing.T) {
	for fi, frame := range fusedTestFrames(t) {
		p, _ := Unmarshal(frame)
		v, err := ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if v.Length() != p.Length || Proto(v.b[9]) != p.Protocol ||
			v.sport != p.SrcPort || v.dport != p.DstPort {
			t.Fatalf("frame %d: view (%d,%v,%d,%d) vs packet (%d,%v,%d,%d)", fi,
				v.Length(), Proto(v.b[9]), v.sport, v.dport,
				p.Length, p.Protocol, p.SrcPort, p.DstPort)
		}
	}
}

// TestDecodeFeaturesZeroAlloc is the allocation gate on the fused fast
// path, accept and reject alike, on the simulator's feature set and on
// the hardware set BenchmarkDecodeFeatures decodes.
func TestDecodeFeaturesZeroAlloc(t *testing.T) {
	frames := fusedTestFrames(t)
	junk := []byte{0x60, 0, 0, 0}
	for _, fs := range []FeatureSet{DefaultSimulationFeatures(), HardwareFeatures()} {
		dst := make([]uint32, len(fs))
		allocs := testing.AllocsPerRun(200, func() {
			for _, frame := range frames {
				v, err := ParseFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				v.Features(fs, dst)
			}
			if _, err := ParseFrame(junk); err == nil {
				t.Fatal("junk accepted")
			}
		})
		if allocs != 0 {
			t.Fatalf("ParseFrame+Features over %d features allocates %v per run, want 0", len(fs), allocs)
		}
	}
}

// BenchmarkDecodeFeatures measures the fused path against the
// Unmarshal+Extract reference it replaces, on the hardware feature set
// the replay pipeline deploys.
func BenchmarkDecodeFeatures(b *testing.B) {
	frames := benchFrames()
	fs := HardwareFeatures()
	dst := make([]uint32, len(fs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ParseFrame(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		v.Features(fs, dst)
	}
}

// BenchmarkUnmarshalExtract is the reference two-pass path the fused
// decoder replaces.
func BenchmarkUnmarshalExtract(b *testing.B) {
	frames := benchFrames()
	fs := HardwareFeatures()
	dst := make([]uint32, len(fs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Unmarshal(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		fs.Extract(p, dst)
	}
}

func benchFrames() [][]byte {
	r := rand.New(rand.NewSource(1))
	frames := make([][]byte, 256)
	for i := range frames {
		p := &Packet{
			SrcIP:    V4(10, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))),
			DstIP:    V4(192, 168, byte(r.Intn(256)), byte(r.Intn(256))),
			Protocol: ProtoUDP, SrcPort: uint16(r.Intn(65536)), DstPort: uint16(r.Intn(65536)),
			TTL: uint8(r.Intn(256)), Length: uint16(28 + r.Intn(1400)),
		}
		wire, err := marshal(p)
		if err != nil {
			panic(err)
		}
		frames[i] = wire
	}
	return frames
}
