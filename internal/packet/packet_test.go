package packet

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickConfig fixes the generator of a quick.Check, so a failing input
// is the same on every run.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// marshal renders p into a fresh WireLen() buffer.
func marshal(p *Packet) ([]byte, error) {
	b := make([]byte, p.WireLen())
	return b, p.MarshalTo(b)
}

func samplePacket() *Packet {
	return &Packet{
		SrcIP:      V4(10, 0, 1, 2),
		DstIP:      V4(192, 168, 3, 4),
		Length:     512,
		ID:         0xbeef,
		FragOffset: 0,
		TTL:        64,
		Protocol:   ProtoUDP,
		SrcPort:    123,
		DstPort:    4444,
		Label:      Malicious,
		Vector:     "NTP",
		FlowID:     7,
	}
}

func TestProtoString(t *testing.T) {
	cases := map[Proto]string{
		ProtoICMP: "ICMP",
		ProtoTCP:  "TCP",
		ProtoUDP:  "UDP",
		Proto(99): "proto(99)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Proto(%d).String() = %q, want %q", uint8(p), got, want)
		}
	}
}

func TestLabelString(t *testing.T) {
	if Benign.String() != "benign" || Malicious.String() != "malicious" {
		t.Errorf("label strings wrong: %q %q", Benign, Malicious)
	}
}

func TestClone(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("clone differs: %+v vs %+v", p, q)
	}
	q.TTL = 1
	if p.TTL == 1 {
		t.Fatalf("clone aliases original")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	for _, proto := range []Proto{ProtoTCP, ProtoUDP, ProtoICMP} {
		p := samplePacket()
		p.Protocol = proto
		if proto == ProtoICMP {
			p.SrcPort, p.DstPort, p.Flags = 0, 0, 0
		}
		if proto == ProtoTCP {
			p.Flags = FlagSYN | FlagACK
		}
		b, err := marshal(p)
		if err != nil {
			t.Fatalf("%v: Marshal: %v", proto, err)
		}
		if len(b) != int(p.Length) {
			t.Fatalf("%v: wire length %d, want %d", proto, len(b), p.Length)
		}
		q, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", proto, err)
		}
		if q.SrcIP != p.SrcIP || q.DstIP != p.DstIP || q.Length != p.Length ||
			q.ID != p.ID || q.TTL != p.TTL || q.Protocol != p.Protocol {
			t.Errorf("%v: IP fields differ: %+v vs %+v", proto, q, p)
		}
		if proto != ProtoICMP && (q.SrcPort != p.SrcPort || q.DstPort != p.DstPort) {
			t.Errorf("%v: ports differ: %+v", proto, q)
		}
		if proto == ProtoTCP && q.Flags != p.Flags {
			t.Errorf("TCP flags differ: %x vs %x", q.Flags, p.Flags)
		}
	}
}

func TestMarshalChecksumValid(t *testing.T) {
	p := samplePacket()
	b, err := marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	// Re-summing the header including the stored checksum must give 0
	// (i.e. ^sum == 0xffff folding to all-ones complement identity).
	if got := checksum(b[:ipv4HeaderLen], 0); got != 0 {
		t.Errorf("IPv4 header checksum does not verify: residual %#x", got)
	}
}

// transportChecksumOracle is the transport checksum as MarshalTo first
// computed it, verbatim but for checksum's partial-sum argument: a copy
// of the pseudo-header and the whole segment, payload included, summed
// 16 bits at a time. seg must have its checksum field zeroed.
func transportChecksumOracle(src, dst [4]byte, proto uint8, seg []byte) uint16 {
	pseudo := make([]byte, 12, 12+len(seg)+1)
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(seg)))
	pseudo = append(pseudo, seg...)
	sum := checksum(pseudo, 0)
	if sum == 0 && proto == uint8(ProtoUDP) {
		sum = 0xffff // UDP: zero checksum means "no checksum"
	}
	return sum
}

// transportField returns the offset of the transport checksum in a
// marshaled TCP or UDP frame.
func transportField(p *Packet) int {
	if p.Protocol == ProtoTCP {
		return ipv4HeaderLen + 16
	}
	return ipv4HeaderLen + 6
}

// checkTransportChecksum marshals p and holds its transport checksum to
// the oracle's over the written segment.
func checkTransportChecksum(t *testing.T, p *Packet) uint16 {
	t.Helper()
	b, err := marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	f := transportField(p)
	got := binary.BigEndian.Uint16(b[f : f+2])
	seg := append([]byte(nil), b[ipv4HeaderLen:]...)
	seg[f-ipv4HeaderLen], seg[f-ipv4HeaderLen+1] = 0, 0
	if want := transportChecksumOracle(p.SrcIP, p.DstIP, uint8(p.Protocol), seg); got != want {
		t.Fatalf("%v length %d: transport checksum %#04x, oracle %#04x (%+v)", p.Protocol, p.Length, got, want, p)
	}
	return got
}

// TestTransportChecksum is the differential test of the header-only
// transport checksum against the oracle that sums the whole segment:
// seeded random TCP and UDP packets of every length class (odd, below
// the header size, up to the 16-bit maximum), then the packets whose sum
// folds to zero, which UDP must send as 0xffff and TCP as 0.
func TestTransportChecksum(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		p := randomPacket(r)
		p.Protocol = []Proto{ProtoTCP, ProtoUDP}[i%2]
		p.SrcPort, p.DstPort = uint16(r.Intn(1<<16)), uint16(r.Intn(1<<16))
		p.Flags = uint8(r.Intn(256))
		switch i % 8 {
		case 0, 1:
			p.Length = uint16(r.Intn(p.headerLen())) // WireLen grows to the headers
		case 2, 3:
			p.Length |= 1
		case 4:
			p.Length = uint16(r.Intn(1 << 16))
		}
		checkTransportChecksum(t, p)
	}
	for _, proto := range []Proto{ProtoTCP, ProtoUDP} {
		for _, length := range []uint16{0, 61, 1500} {
			p := samplePacket()
			p.Protocol, p.Length, p.DstPort = proto, length, 0
			// With DstPort at zero the stored checksum c is the
			// complement of the rest of the sum; DstPort = c makes the
			// whole sum 0xffff, whose complement is zero.
			p.DstPort = checkTransportChecksum(t, p)
			want := uint16(0)
			if proto == ProtoUDP {
				want = 0xffff
			}
			if got := checkTransportChecksum(t, p); got != want {
				t.Fatalf("%v length %d: zero-sum checksum sent as %#04x, want %#04x", proto, length, got, want)
			}
		}
	}
}

// TestMarshalZeroAlloc is the allocation gate on MarshalTo: a full-size
// frame of each transport, and one below its header size.
func TestMarshalZeroAlloc(t *testing.T) {
	buf := make([]byte, 1500)
	for _, proto := range []Proto{ProtoTCP, ProtoUDP, ProtoICMP} {
		for _, length := range []uint16{1500, 4} {
			p := samplePacket()
			p.Protocol, p.Length = proto, length
			allocs := testing.AllocsPerRun(200, func() {
				if err := p.MarshalTo(buf); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v length %d: MarshalTo allocates %v per call, want 0", proto, length, allocs)
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Errorf("short buffer should fail")
	}
	b := make([]byte, 20)
	b[0] = 0x65 // IPv6 version nibble
	if _, err := Unmarshal(b); err == nil {
		t.Errorf("non-v4 should fail")
	}
	p := samplePacket()
	w, _ := marshal(p)
	w[2], w[3] = 0xff, 0xff // total length beyond capture
	if _, err := Unmarshal(w); err == nil {
		t.Errorf("overlong total length should fail")
	}
}

func TestMarshalMinimumLength(t *testing.T) {
	p := samplePacket()
	p.Length = 4 // below header size: WireLen must grow to fit headers
	if p.WireLen() != ipv4HeaderLen+udpHeaderLen {
		t.Fatalf("WireLen = %d", p.WireLen())
	}
	if _, err := marshal(p); err != nil {
		t.Fatalf("Marshal: %v", err)
	}
}

func TestMarshalToShortBuffer(t *testing.T) {
	p := samplePacket()
	if err := p.MarshalTo(make([]byte, 8)); err == nil {
		t.Fatal("MarshalTo with a short buffer should fail")
	}
}

func TestFeatureValues(t *testing.T) {
	p := samplePacket()
	cases := map[Feature]uint32{
		FSrcIP:      0x0a000102,
		FDstIP:      0xc0a80304,
		FSrcIPByte0: 10, FSrcIPByte1: 0, FSrcIPByte2: 1, FSrcIPByte3: 2,
		FDstIPByte0: 192, FDstIPByte1: 168, FDstIPByte2: 3, FDstIPByte3: 4,
		FSrcPort: 123, FDstPort: 4444,
		FTTL: 64, FLength: 512, FID: 0xbeef, FFragOffset: 0,
		FProtocol: 17,
	}
	for f, want := range cases {
		if got := (FeatureSet{f}).Extract(p, nil)[0]; got != want {
			t.Errorf("Extract(%v) = %d, want %d", f, got, want)
		}
	}
}

func TestFeatureMetadata(t *testing.T) {
	for f := Feature(0); f < numFeatures; f++ {
		if f.String() == "" {
			t.Errorf("feature %d has no name", f)
		}
		if f.Bits() <= 0 || f.Bits() > 32 {
			t.Errorf("%v: bits = %d", f, f.Bits())
		}
	}
	if !FSrcPort.Nominal() || !FDstPort.Nominal() || !FProtocol.Nominal() {
		t.Errorf("ports and protocol must be nominal")
	}
	if FSrcIP.Nominal() || FTTL.Nominal() || FLength.Nominal() {
		t.Errorf("addresses, TTL, length must be ordinal")
	}
	if FSrcIP.MaxValue() != 0xffffffff || FTTL.MaxValue() != 255 || FFragOffset.MaxValue() != 0x1fff {
		t.Errorf("MaxValue wrong")
	}
}

func TestFeatureSetExtract(t *testing.T) {
	fs := FeatureSet{FTTL, FLength, FSrcPort}
	p := samplePacket()
	got := fs.Extract(p, nil)
	want := []uint32{64, 512, 123}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Extract = %v, want %v", got, want)
	}
	// Reuse path.
	buf := make([]uint32, 3)
	got2 := fs.Extract(p, buf)
	if &got2[0] != &buf[0] {
		t.Errorf("Extract should reuse the provided buffer")
	}
	// A short non-nil dst must grow, not panic on reslice.
	got3 := fs.Extract(p, make([]uint32, 1))
	if !reflect.DeepEqual(got3, want) {
		t.Errorf("Extract with short dst = %v, want %v", got3, want)
	}
	// A zero-length slice of a large backing array is still reusable.
	got4 := fs.Extract(p, buf[:0])
	if &got4[0] != &buf[0] || !reflect.DeepEqual(got4, want) {
		t.Errorf("Extract should reuse capacity of a truncated buffer")
	}
}

// TestFeatureDoorsAgree: over every feature, the three ways to read one
// give one answer — the set extractor, the single-value wrapper over it,
// and the wire door on the marshalled packet — and a Feature outside
// the enumeration reads 0 from each.
func TestFeatureDoorsAgree(t *testing.T) {
	all := make(FeatureSet, 0, NumFeatures+2)
	for f := Feature(0); f < numFeatures; f++ {
		all = append(all, f)
	}
	all = append(all, numFeatures, Feature(255))
	r := rand.New(rand.NewSource(23))
	pkts := []*Packet{
		{Length: ipv4HeaderLen}, // the zero value: 0.0.0.0, no transport
		samplePacket(),
		{SrcIP: V4(255, 254, 253, 252), DstIP: V4(1, 2, 3, 4), Protocol: ProtoTCP, SrcPort: 65535, DstPort: 1,
			TTL: 255, Length: 1500, ID: 0xffff, FragOffset: 0x1fff, Flags: FlagSYN},
		{SrcIP: V4(10, 0, 0, 1), DstIP: V4(10, 0, 0, 2), Protocol: ProtoICMP, TTL: 1, Length: 84, ID: 7},
		randomPacket(r), randomPacket(r), randomPacket(r),
	}
	for _, p := range pkts {
		b, err := marshal(p)
		if err != nil {
			t.Fatalf("%v: Marshal: %v", p, err)
		}
		v, err := ParseFrame(b)
		if err != nil {
			t.Fatalf("%v: ParseFrame: %v", p, err)
		}
		got := all.Extract(p, nil)
		for i, f := range all {
			if wire := v.Feature(f); got[i] != wire {
				t.Errorf("%v, %v: Extract %d, FrameView.Feature %d", p, f, got[i], wire)
			}
			if f >= numFeatures && got[i] != 0 {
				t.Errorf("%v: unknown %v extracted as %d, want 0", p, f, got[i])
			}
		}
	}
}

func TestDefaultFeatureSets(t *testing.T) {
	if n := len(DefaultSimulationFeatures()); n != 12 {
		t.Errorf("simulation set has %d features, want 12", n)
	}
	if n := len(HardwareFeatures()); n != 4 {
		t.Errorf("hardware set has %d features, want 4", n)
	}
}

// randomPacket draws a structurally valid random packet.
func randomPacket(r *rand.Rand) *Packet {
	protos := []Proto{ProtoTCP, ProtoUDP, ProtoICMP}
	p := &Packet{
		SrcIP:      V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))),
		DstIP:      V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))),
		ID:         uint16(r.Intn(1 << 16)),
		FragOffset: uint16(r.Intn(1 << 13)),
		TTL:        uint8(r.Intn(256)),
		Protocol:   protos[r.Intn(len(protos))],
	}
	p.Length = uint16(p.headerLen() + r.Intn(1400))
	if p.Protocol != ProtoICMP {
		p.SrcPort = uint16(r.Intn(1 << 16))
		p.DstPort = uint16(r.Intn(1 << 16))
	}
	return p
}

func TestQuickWireRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPacket(r)
		b, err := marshal(p)
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		q, err := Unmarshal(b)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		ok := q.SrcIP == p.SrcIP && q.DstIP == p.DstIP && q.Length == p.Length &&
			q.ID == p.ID && q.FragOffset == p.FragOffset && q.TTL == p.TTL &&
			q.Protocol == p.Protocol && q.SrcPort == p.SrcPort && q.DstPort == p.DstPort
		if !ok {
			t.Logf("mismatch: %+v vs %+v", p, q)
		}
		return ok
	}
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFeatureValueWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPacket(r)
		for ft := Feature(0); ft < numFeatures; ft++ {
			if v := (FeatureSet{ft}).Extract(p, nil)[0]; v > ft.MaxValue() {
				t.Logf("%v value %d exceeds max %d", ft, v, ft.MaxValue())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChecksumDetectsCorruption(t *testing.T) {
	f := func(seed int64, flip uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPacket(r)
		b, err := marshal(p)
		if err != nil {
			return false
		}
		pos := int(flip) % ipv4HeaderLen
		b[pos] ^= 0x01
		// After flipping one bit in the header, the checksum must no
		// longer verify (unless we flipped within the checksum field
		// itself, which still breaks verification).
		return checksum(b[:ipv4HeaderLen], 0) != 0
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, p.WireLen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.MarshalTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureExtract(b *testing.B) {
	p := samplePacket()
	fs := DefaultSimulationFeatures()
	buf := make([]uint32, len(fs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs.Extract(p, buf)
	}
}
