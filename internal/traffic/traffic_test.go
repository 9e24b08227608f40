package traffic

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
)

// quickConfig fixes the generator of a quick.Check, so a failing input
// is the same on every run.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// fiveTuple is a packet's flow key, usable as a map key.
type fiveTuple struct {
	src, dst     packet.V4Addr
	proto        packet.Proto
	sport, dport uint16
}

func flowOf(p *packet.Packet) fiveTuple {
	return fiveTuple{p.SrcIP, p.DstIP, p.Protocol, p.SrcPort, p.DstPort}
}

func simpleFactory(size uint16) Factory {
	spec := FlowSpec{
		SrcIP: packet.V4Addr{1, 2, 3, 4}, DstIP: packet.V4Addr{5, 6, 7, 8},
		Protocol: packet.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 64, Size: size,
	}
	return spec.Factory(1)
}

func TestCBRRateAndOrdering(t *testing.T) {
	// 1000 B packets at 8 Mbps -> 1 packet per ms -> 1000 packets/s.
	src := NewCBR(0, eventsim.Second, 8e6, simpleFactory(1000))
	pkts := Collect(src)
	if got := len(pkts); got < 990 || got > 1010 {
		t.Fatalf("got %d packets, want ~1000", got)
	}
	for i := 1; i < len(pkts); i++ {
		if pkts[i].At < pkts[i-1].At {
			t.Fatal("timestamps not monotonic")
		}
	}
	if pkts[0].At != 0 {
		t.Fatalf("first packet at %v", pkts[0].At)
	}
}

func TestCBRWindowRespected(t *testing.T) {
	src := NewCBR(2*eventsim.Second, 3*eventsim.Second, 8e6, simpleFactory(1000))
	pkts := Collect(src)
	for _, tp := range pkts {
		if tp.At < 2*eventsim.Second || tp.At >= 3*eventsim.Second {
			t.Fatalf("packet outside window at %v", tp.At)
		}
	}
}

// TestRampedMatchesInterpolation: the ACC ramp's rate is the linear
// interpolation through (start, 0), (start+Ramp, peak), (end-Ramp,
// peak), (end, 0) that Fig. 2's workload has always used, float for
// float, with each segment holding its end; outside the window it is 0.
func TestRampedMatchesInterpolation(t *testing.T) {
	p := eventsim.Pulses{First: 13 * eventsim.Second, Len: 18 * eventsim.Second, Ramp: 6 * eventsim.Second, Count: 1}
	const peak = 3e7
	type point struct {
		at   eventsim.Time
		bits float64
	}
	pts := []point{{13 * eventsim.Second, 0}, {19 * eventsim.Second, peak}, {25 * eventsim.Second, peak}, {31 * eventsim.Second, 0}}
	lerp := func(at eventsim.Time) float64 {
		if at <= pts[0].at {
			return pts[0].bits
		}
		for i := 1; i < len(pts); i++ {
			if at <= pts[i].at {
				frac := float64(at-pts[i-1].at) / float64(pts[i].at-pts[i-1].at)
				return pts[i-1].bits + frac*(pts[i].bits-pts[i-1].bits)
			}
		}
		return pts[len(pts)-1].bits
	}
	f := ramped(p, peak)
	for at := eventsim.Time(0); at <= 35*eventsim.Second; at += 999_983 {
		for _, t0 := range []eventsim.Time{at, 13*eventsim.Second + at%3 - 1, 31*eventsim.Second + at%3 - 1} {
			if got, want := f(t0), lerp(t0); got != want {
				t.Fatalf("rate at %v = %v, want %v", t0, got, want)
			}
		}
	}
	for _, c := range []struct {
		at   eventsim.Time
		want float64
	}{{13 * eventsim.Second, 0}, {16 * eventsim.Second, peak / 2}, {19 * eventsim.Second, peak}, {25 * eventsim.Second, peak},
		{28 * eventsim.Second, peak / 2}, {31 * eventsim.Second, 0}, {40 * eventsim.Second, 0}} {
		if got := f(c.at); got != c.want {
			t.Errorf("rate at %v = %v, want %v", c.at, got, c.want)
		}
	}
}

// TestRatedPausesAtZeroRate: a source whose rate drops to zero sends
// nothing until it is positive again.
func TestRatedPausesAtZeroRate(t *testing.T) {
	rate := func(at eventsim.Time) float64 {
		if at > eventsim.Second && at <= 2*eventsim.Second {
			return 0
		}
		return 8e6
	}
	src := NewRated(0, 3*eventsim.Second, rate, simpleFactory(1000))
	inGap, after := 0, 0
	for _, tp := range Collect(src) {
		if tp.At > eventsim.Second+50*eventsim.Millisecond && tp.At < 2*eventsim.Second-50*eventsim.Millisecond {
			inGap++
		}
		if tp.At > 2*eventsim.Second {
			after++
		}
	}
	if inGap > 0 || after == 0 {
		t.Fatalf("%d packets during zero-rate gap, %d after it", inGap, after)
	}
}

func TestMergeOrdersGlobally(t *testing.T) {
	a := NewCBR(0, eventsim.Second, 4e6, simpleFactory(1000))
	b := NewCBR(eventsim.Second/2, 2*eventsim.Second, 4e6, simpleFactory(500))
	merged := Collect(Merge(a, b))
	if len(merged) == 0 {
		t.Fatal("no packets")
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At < merged[i-1].At {
			t.Fatalf("merge out of order at %d", i)
		}
	}
}

// Packets with equal timestamps leave a merge in source-argument order,
// and a source's own ties in its order: a stable sort of the inputs.
func TestMergeTiesLeaveInArgumentOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var srcs []Source
	var want []TimedPacket
	for s := 0; s < 7; s++ {
		var pkts []TimedPacket
		at := eventsim.Time(0)
		for i := 0; i < 300 && s != 3; i++ { // source 3 is empty
			at += eventsim.Time(rng.Intn(3))
			pkts = append(pkts, TimedPacket{At: at, Pkt: &packet.Packet{FlowID: uint32(s), ID: uint16(i)}})
		}
		srcs = append(srcs, FromSlice(pkts))
		want = append(want, pkts...)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
	got := Collect(Merge(srcs...))
	if len(got) != len(want) {
		t.Fatalf("merged %d packets of %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("packet %d: source %d #%d at %v, stable sort has source %d #%d at %v", i,
				got[i].Pkt.FlowID, got[i].Pkt.ID, got[i].At, want[i].Pkt.FlowID, want[i].Pkt.ID, want[i].At)
		}
	}
}

func TestConcatAndLimit(t *testing.T) {
	c := NewCBR(0, eventsim.Second, 8e6, simpleFactory(1000))
	if got := len(Collect(Limit(c, 5))); got != 5 {
		t.Fatalf("limit yielded %d", got)
	}
}

// FromSlice replays a pre-built packet list.
func FromSlice(pkts []TimedPacket) Source {
	return &sliceSource{pkts: pkts}
}

type sliceSource struct {
	pkts []TimedPacket
	i    int
}

func (s *sliceSource) Next() (TimedPacket, bool) {
	if s.i >= len(s.pkts) {
		return TimedPacket{}, false
	}
	tp := s.pkts[s.i]
	s.i++
	return tp, true
}

func TestFromSliceRoundTrip(t *testing.T) {
	orig := Collect(NewCBR(0, eventsim.Second/10, 8e6, simpleFactory(100)))
	got := Collect(FromSlice(orig))
	if len(got) != len(orig) {
		t.Fatalf("%d vs %d", len(got), len(orig))
	}
}

func TestLabelOverride(t *testing.T) {
	src := Label(NewCBR(0, eventsim.Second/100, 8e6, simpleFactory(1000)), packet.Malicious, "test-vector")
	for _, tp := range Collect(src) {
		if tp.Pkt.Label != packet.Malicious || tp.Pkt.Vector != "test-vector" {
			t.Fatalf("label not applied: %+v", tp.Pkt)
		}
	}
}

func TestFlowSpecRandomization(t *testing.T) {
	spec := FlowSpec{
		SrcIP: packet.V4Addr{10, 0, 0, 0}, DstIP: packet.V4Addr{20, 0, 0, 0},
		Protocol: packet.ProtoUDP, SrcPort: 5, DstPort: 6, TTL: 64, Size: 100,
		SrcHostBits: 8, DstHostBits: 4, RandomSrcPort: true, SizeJitter: 50, TTLJitter: 10,
	}
	f := spec.Factory(42)
	srcs := map[uint32]bool{}
	ports := map[uint16]bool{}
	for i := uint64(0); i < 200; i++ {
		p := &packet.Packet{}
		f(i, 0, p)
		srcIP := p.SrcIP.Uint32()
		if srcIP>>8 != uint32(10)<<16 {
			t.Fatalf("src prefix corrupted: %v", p.SrcIP)
		}
		srcs[srcIP] = true
		ports[p.SrcPort] = true
		if p.SrcPort < 1024 {
			t.Fatalf("ephemeral port %d below 1024", p.SrcPort)
		}
		if p.Length < 100 || p.Length >= 150 {
			t.Fatalf("size %d outside jitter window", p.Length)
		}
		if p.TTL < 64 || p.TTL >= 74 {
			t.Fatalf("ttl %d outside jitter window", p.TTL)
		}
		if d := p.DstIP[3]; d >= 16 {
			t.Fatalf("dst host bits exceeded: %d", d)
		}
	}
	if len(srcs) < 50 {
		t.Fatalf("source randomization too weak: %d distinct", len(srcs))
	}
	if len(ports) < 50 {
		t.Fatalf("port randomization too weak: %d distinct", len(ports))
	}
}

func TestFlowSpecDeterministic(t *testing.T) {
	spec := FlowSpec{SrcIP: packet.V4Addr{1, 0, 0, 0}, Protocol: packet.ProtoUDP,
		Size: 100, SrcHostBits: 16, RandomSrcPort: true}
	a, b := spec.Factory(7), spec.Factory(7)
	for i := uint64(0); i < 50; i++ {
		pa, pb := &packet.Packet{}, &packet.Packet{}
		a(i, 0, pa)
		b(i, 0, pb)
		if pa.SrcIP != pb.SrcIP || pa.SrcPort != pb.SrcPort {
			t.Fatal("factories with equal seeds diverged")
		}
	}
}

func TestBackgroundRateCalibration(t *testing.T) {
	const want = 20e6 // 20 Mbps
	bg := NewBackground(BackgroundConfig{
		Rate: want, Start: 0, End: 10 * eventsim.Second, Seed: 3,
	})
	var bytes int
	var last eventsim.Time
	n := 0
	for {
		tp, ok := bg.Next()
		if !ok {
			break
		}
		if tp.At < last {
			t.Fatal("background not time-ordered")
		}
		last = tp.At
		bytes += tp.Pkt.Size()
		n++
		if tp.Pkt.Label != packet.Benign {
			t.Fatal("background must be benign")
		}
	}
	got := float64(bytes) * 8 / 10
	if math.Abs(got-want)/want > 0.35 {
		t.Fatalf("background rate %v, want within 35%% of %v", got, want)
	}
	if n < 1000 {
		t.Fatalf("only %d packets", n)
	}
}

func TestBackgroundDiversity(t *testing.T) {
	bg := NewBackground(BackgroundConfig{Rate: 10e6, Start: 0, End: 5 * eventsim.Second, Seed: 4})
	flows := map[fiveTuple]bool{}
	protos := map[packet.Proto]bool{}
	for {
		tp, ok := bg.Next()
		if !ok {
			break
		}
		flows[flowOf(tp.Pkt)] = true
		protos[tp.Pkt.Protocol] = true
	}
	if len(flows) < 100 {
		t.Fatalf("only %d distinct flows", len(flows))
	}
	if !protos[packet.ProtoTCP] || !protos[packet.ProtoUDP] {
		t.Fatalf("protocol mix missing: %v", protos)
	}
}

func TestVectorsCatalog(t *testing.T) {
	vs := Vectors()
	if len(vs) != 9 {
		t.Fatalf("%d vectors, want 9 (Fig. 9a)", len(vs))
	}
	wantNames := []string{"NTP", "DNS", "MSSQL", "NetBIOS", "SNMP", "SSDP", "TFTP", "UDP", "UDPLag"}
	for i, v := range vs {
		if v.Name != wantNames[i] {
			t.Errorf("vector %d = %q, want %q", i, v.Name, wantNames[i])
		}
	}
	refl := 0
	for _, v := range vs {
		if v.Class == Reflection {
			refl++
		}
	}
	if refl != 7 {
		t.Fatalf("%d reflection vectors, want 7", refl)
	}
	if VectorsMust("NTP").Name != "NTP" {
		t.Fatal("VectorsMust(\"NTP\") returned another vector")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an unknown vector should panic")
			}
		}()
		VectorsMust("bogus")
	}()
	if Reflection.String() == Exploitation.String() {
		t.Fatal("class names collide")
	}
}

func TestFloodTargetsVictim(t *testing.T) {
	v := VectorsMust("NTP")
	victim := packet.V4Addr{198, 18, 0, 1}
	src := v.Flood(0, eventsim.Second/10, 8e6, victim, 7777, 1)
	n := 0
	for _, tp := range Collect(src) {
		n++
		p := tp.Pkt
		if p.DstIP != victim || p.DstPort != 7777 {
			t.Fatalf("flood not aimed at victim: %v", p)
		}
		if p.SrcPort != 123 {
			t.Fatalf("NTP reflection must come from port 123, got %d", p.SrcPort)
		}
		if p.Label != packet.Malicious || p.Vector != "NTP" {
			t.Fatalf("labels wrong: %v %v", p.Label, p.Vector)
		}
	}
	if n == 0 {
		t.Fatal("no flood packets")
	}
}

func TestACCOriginalShape(t *testing.T) {
	src := ACCOriginal(10e6)
	var attackEarly, attackPeak int
	benignIDs := map[uint32]bool{}
	for {
		tp, ok := src.Next()
		if !ok {
			break
		}
		p := tp.Pkt
		if p.FlowID == AggAttack {
			if tp.At < 13*eventsim.Second {
				attackEarly++
			}
			if tp.At >= 19*eventsim.Second && tp.At < 25*eventsim.Second {
				attackPeak++
			}
			if p.Label != packet.Malicious {
				t.Fatal("attack aggregate must be malicious")
			}
		} else {
			benignIDs[p.FlowID] = true
		}
	}
	if attackEarly > 0 {
		t.Fatalf("%d attack packets before 13s", attackEarly)
	}
	// Peak: 3x10 Mbps over 6 s at 500 B -> 45000 packets.
	if attackPeak < 30_000 {
		t.Fatalf("attack peak too small: %d packets", attackPeak)
	}
	if len(benignIDs) != 4 {
		t.Fatalf("benign aggregates = %v", benignIDs)
	}
}

func TestPulseWaveShape(t *testing.T) {
	for _, morph := range []bool{false, true} {
		src := PulseWave(10e6, 30e6, 5*eventsim.Second, morph)
		var inPulse, inGap int
		vectors := map[string]bool{}
		for {
			tp, ok := src.Next()
			if !ok {
				break
			}
			if tp.Pkt.FlowID != AggAttack {
				continue
			}
			vectors[tp.Pkt.Vector] = true
			s := tp.At.Seconds()
			switch {
			case (s >= 5 && s < 10) || (s >= 15 && s < 20) || (s >= 25 && s < 30) || (s >= 35 && s < 40):
				inPulse++
			default:
				inGap++
			}
		}
		if inPulse == 0 {
			t.Fatalf("morph=%v: no pulse traffic", morph)
		}
		if inGap > 0 {
			t.Fatalf("morph=%v: %d attack packets outside pulses", morph, inGap)
		}
		if morph && len(vectors) < 4 {
			t.Fatalf("morphing attack used only %v", vectors)
		}
		if !morph && len(vectors) != 1 {
			t.Fatalf("non-morphing attack used %v", vectors)
		}
	}
}

func TestVariationShapes(t *testing.T) {
	end := 2 * eventsim.Second
	for _, v := range []AttackVariation{NoAttack, SingleFlow, CarpetBombing, SourceSpoofing} {
		src := Variation(v, 5e6, 20e6, eventsim.Second/2, end, 9)
		attackFlows := map[fiveTuple]bool{}
		dsts := map[uint32]bool{}
		srcsSeen := map[uint32]bool{}
		attackPkts := 0
		for {
			tp, ok := src.Next()
			if !ok {
				break
			}
			if tp.Pkt.Label != packet.Malicious {
				continue
			}
			attackPkts++
			attackFlows[flowOf(tp.Pkt)] = true
			dsts[tp.Pkt.DstIP.Uint32()] = true
			srcsSeen[tp.Pkt.SrcIP.Uint32()] = true
		}
		switch v {
		case NoAttack:
			if attackPkts != 0 {
				t.Fatalf("NoAttack produced %d attack packets", attackPkts)
			}
		case SingleFlow:
			if len(attackFlows) != 1 {
				t.Fatalf("SingleFlow has %d flows", len(attackFlows))
			}
		case CarpetBombing:
			if len(dsts) < 100 {
				t.Fatalf("CarpetBombing hit only %d destinations", len(dsts))
			}
		case SourceSpoofing:
			if len(srcsSeen) < 1000 {
				t.Fatalf("SourceSpoofing used only %d sources", len(srcsSeen))
			}
		}
	}
}

func TestCICDDoSDayWindows(t *testing.T) {
	src, windows := CICDDoSDay(2e6, 10e6, eventsim.Second, eventsim.Second/2, 11)
	if len(windows) != 9 {
		t.Fatalf("%d windows", len(windows))
	}
	counts := map[string]int{}
	for {
		tp, ok := src.Next()
		if !ok {
			break
		}
		p := tp.Pkt
		if p.Label != packet.Malicious {
			continue
		}
		counts[p.Vector]++
		// Every malicious packet must fall inside its vector's window.
		found := false
		for _, w := range windows {
			if w.Vector.Name == p.Vector && tp.At >= w.Start && tp.At < w.End {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("attack packet for %q at %v outside its window", p.Vector, tp.At)
		}
	}
	for _, w := range windows {
		if counts[w.Vector.Name] == 0 {
			t.Fatalf("vector %q produced no packets", w.Vector.Name)
		}
	}
}

// Property: merge of any set of CBR sources is globally time-ordered
// and loses no packets.
func TestQuickMergePreservesAll(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%5 + 1
		var srcs []Source
		want := 0
		for i := 0; i < n; i++ {
			start := eventsim.Time(r.Int63n(int64(eventsim.Second)))
			dur := eventsim.Time(r.Int63n(int64(eventsim.Second)) + int64(eventsim.Millisecond))
			rate := 1e6 + r.Float64()*1e7
			src := NewCBR(start, start+dur, rate, simpleFactory(uint16(100+r.Intn(1000))))
			pkts := Collect(src)
			want += len(pkts)
			srcs = append(srcs, FromSlice(pkts))
		}
		merged := Collect(Merge(srcs...))
		if len(merged) != want {
			return false
		}
		for i := 1; i < len(merged); i++ {
			if merged[i].At < merged[i-1].At {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(50)); err != nil {
		t.Fatal(err)
	}
}

// Property: CBR byte throughput matches the configured rate within two
// packets of slack and the pacing's truncation error.
func TestQuickCBRRate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rate := 1e6 + r.Float64()*50e6
		size := uint16(100 + r.Intn(1300))
		dur := eventsim.Second
		pkts := Collect(NewCBR(0, dur, rate, simpleFactory(size)))
		bytes := 0
		for _, tp := range pkts {
			bytes += tp.Pkt.Size()
		}
		got := float64(bytes) * 8
		// rated.Next cuts every gap of size*8/rate seconds to whole
		// nanoseconds, so up to rate/(size*8) packets a second each leave
		// up to 1 ns early: at most rate²·1e-9/(size*8) extra bits.
		truncation := rate * rate * 1e-9 / (float64(size) * 8)
		return math.Abs(got-rate) <= float64(size)*8*2+truncation
	}
	if err := quick.Check(f, quickConfig(50)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRates: the -scenario, -link and -duration values that used to
// reach a generator's panic or a loop that never ends (NaN; a gap that
// truncates to 0 ns; an end past MaxTime) are refused, and the error
// names the flag.
func TestCheckRates(t *testing.T) {
	for _, c := range []struct {
		scenario       string
		link, duration float64
		bad            string // the flag the error names; "" = accepted
	}{
		{"pulsewave", 10e6, 30, ""},
		{"pulsewave", 1, 0.001, ""},
		{"pulsewave", 0, 30, "-link"},
		{"pulsewave", -10e6, 30, "-link"},
		{"pulsewave", math.NaN(), 30, "-link"},
		{"pulsewave", math.Inf(1), 30, "-link"},
		{"pulsewave", 0.5, 30, "-link"},
		{"pulsewave", 10e6, 0, "-duration"},
		{"pulsewave", 10e6, -3, "-duration"},
		{"pulsewave", 10e6, math.NaN(), "-duration"},
		{"pulsewave", 10e6, math.Inf(1), "-duration"},
		// FromSeconds wraps past MaxTime (≈ 9.22e9 s) to a negative end.
		{"background", 10e6, 9e9, ""},
		{"background", 10e6, 1e10, "-duration"},
		{"background", 10e6, 1e300, "-duration"},
		// Each scenario's ceiling: its fastest source's smallest send
		// paced 1 ns apart.
		{"morphing", 1.06e11, 30, ""}, // the 40-byte SYN pulse at 3×
		{"morphing", 1.07e11, 30, "-link"},
		{"morphing", 4e11, 30, "-link"},
		{"pulsewave", 4e11, 30, ""}, // 500-byte pulses at 3×
		{"pulsewave", 1.34e12, 30, "-link"},
		{"accoriginal", 1.33e12, 30, ""},
		{"accoriginal", 1.34e12, 30, "-link"},
		{"cicddos", 1.59e11, 30, ""}, // 60-byte UDPLag at 3×
		{"cicddos", 1.61e11, 30, "-link"},
		{"singleflow", 7.9e11, 30, ""}, // 1000-byte flood at 10×
		{"carpet", 8.1e11, 30, "-link"},
		{"spoofed", 8.1e11, 30, "-link"},
		{"background", 7.1e13, 30, ""}, // mean flow arrivals
		{"background", 7.3e13, 30, "-link"},
		{"", 1e13, 30, ""}, // a capture replay has no ceiling
		{"bogus", 10e6, 30, "unknown"},
	} {
		err := CheckRates(c.scenario, c.link, c.duration)
		if (err == nil) != (c.bad == "") || err != nil && !strings.HasPrefix(err.Error(), c.bad+" ") {
			t.Errorf("CheckRates(%q, %v, %v) = %v, want an error naming %q", c.scenario, c.link, c.duration, err, c.bad)
		}
	}
}

// TestFastestPaceIsTheGenerators: CheckRates' ceiling is where the
// generator's clock stops. Just above morphing's, its SYN pulse stamps
// consecutive packets at one nanosecond; just below, at least 1 ns apart.
func TestFastestPaceIsTheGenerators(t *testing.T) {
	for _, c := range []struct {
		link float64
		gap  eventsim.Time
	}{{1.06e11, eventsim.Nanosecond}, {1.07e11, 0}} {
		if err := CheckRates("morphing", c.link, 30); (err == nil) != (c.gap > 0) {
			t.Fatalf("link %v: CheckRates = %v", c.link, err)
		}
		src := SYNFlood().Flood(0, eventsim.Second, floodMultiple*c.link, packet.V4Addr{10, 0, 0, 1}, 0, 1)
		a, _ := src.Next()
		b, _ := src.Next()
		if got := b.At - a.At; got != c.gap {
			t.Errorf("link %v: SYN packets %v apart, want %v", c.link, got, c.gap)
		}
	}
}

func BenchmarkBackgroundNext(b *testing.B) {
	bg := NewBackground(BackgroundConfig{Rate: 1e9, Start: 0, End: eventsim.MaxTime, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := bg.Next(); !ok {
			b.Fatal("exhausted")
		}
	}
}

func BenchmarkMergedScenario(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := PulseWave(10e6, 30e6, 2*eventsim.Second, true)
		n := 0
		for {
			if _, ok := src.Next(); !ok {
				break
			}
			n++
		}
		if n == 0 {
			b.Fatal("no packets")
		}
	}
}

func TestPcapSourceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := Collect(NewCBR(0, eventsim.Second/10, 8e6, simpleFactory(400)))
	for _, tp := range orig {
		if err := w.Write(tp.At, tp.Pkt); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()

	r, err := pcap.NewMappedReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	src := NewPcapSource(r)
	got := Collect(src)
	if len(got) != len(orig) {
		t.Fatalf("replayed %d of %d packets", len(got), len(orig))
	}
	for i := range got {
		if got[i].At/eventsim.Microsecond != orig[i].At/eventsim.Microsecond {
			t.Fatalf("timestamp %d: %v vs %v", i, got[i].At, orig[i].At)
		}
		// The template's destination port survives; the label is not on
		// the wire, so it replays as benign.
		if got[i].Pkt.DstPort != 2 || got[i].Pkt.Label != packet.Benign {
			t.Fatalf("packet %d: port %d label %v, want 2 benign", i, got[i].Pkt.DstPort, got[i].Pkt.Label)
		}
	}
	if src.Err() != nil {
		t.Fatalf("unexpected error: %v", src.Err())
	}
}

func TestPcapSourceSurfacesErrors(t *testing.T) {
	var buf bytes.Buffer
	w, _ := pcap.NewWriter(&buf)
	p := &packet.Packet{}
	simpleFactory(100)(0, 0, p)
	w.Write(0, p)
	w.Flush()
	data := buf.Bytes()
	r, err := pcap.NewMappedReader(data[:len(data)-5]) // truncated body
	if err != nil {
		t.Fatal(err)
	}
	src := NewPcapSource(r)
	if _, ok := src.Next(); ok {
		t.Fatal("truncated record yielded a packet")
	}
	if src.Err() == nil {
		t.Fatal("truncation not surfaced via Err")
	}
}

// TestPcapSourceSkipsAndRebases: a frame that does not decode is
// skipped and counted, not an error, and a capture stamped with
// wall-clock seconds replays from the start of its first record's
// second.
func TestPcapSourceSkipsAndRebases(t *testing.T) {
	const epoch = 1_704_067_200 * eventsim.Second // 2024-01-01 UTC
	var buf bytes.Buffer
	w, err := pcap.NewNanoWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{}
	simpleFactory(100)(0, 0, p)
	for i := eventsim.Time(0); i < 3; i++ {
		if err := w.Write(epoch+300*eventsim.Millisecond+i*eventsim.Second, p); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	data := buf.Bytes()
	data[24+2*16+p.WireLen()] = 0x65 // the second record's version nibble: IPv6
	r, err := pcap.NewMappedReader(data)
	if err != nil {
		t.Fatal(err)
	}
	src := NewPcapSource(r)
	got := Collect(src)
	if len(got) != 2 || got[0].At != 300*eventsim.Millisecond || got[1].At != 2300*eventsim.Millisecond {
		t.Fatalf("replayed %+v, want packets at 300ms and 2.3s", got)
	}
	if src.Skipped() != 1 || src.Err() != nil {
		t.Fatalf("skipped %d, err %v; want 1 and nil", src.Skipped(), src.Err())
	}
}

// Property: the CICDDoS day is globally time-ordered and each packet's
// label agrees with its vector tag.
func TestQuickCICDDoSDayConsistent(t *testing.T) {
	f := func(seed int64) bool {
		src, _ := CICDDoSDay(1e6, 4e6, eventsim.Second, eventsim.Second/2, seed)
		var last eventsim.Time
		for {
			tp, ok := src.Next()
			if !ok {
				return true
			}
			if tp.At < last {
				return false
			}
			last = tp.At
			if (tp.Pkt.Vector != "") != (tp.Pkt.Label == packet.Malicious) {
				return false
			}
		}
	}
	if err := quick.Check(f, quickConfig(10)); err != nil {
		t.Fatal(err)
	}
}

// Property: evasion widens the attack's 5-tuple diversity — level 0 is
// a single flow, every higher level spreads across many (TTL and size
// randomization at levels 4-5 do not touch the 5-tuple, so strict
// per-level monotonicity is not guaranteed).
func TestQuickEvasionDiversity(t *testing.T) {
	distinct := make([]int, 7)
	for level := 0; level <= 6; level++ {
		src, err := Evasion(EvasionLevel(level), 0, eventsim.Second/4, 8e6, 1)
		if err != nil {
			t.Fatal(err)
		}
		flows := map[fiveTuple]bool{}
		for _, tp := range Collect(src) {
			flows[flowOf(tp.Pkt)] = true
		}
		distinct[level] = len(flows)
	}
	if distinct[0] != 1 {
		t.Fatalf("level 0 must be one flow: %v", distinct)
	}
	for level := 1; level < 7; level++ {
		if distinct[level] < 100 {
			t.Fatalf("level %d diversity too low: %v", level, distinct)
		}
	}
	if distinct[6] < distinct[1] {
		t.Fatalf("full randomization less diverse than level 1: %v", distinct)
	}
}
