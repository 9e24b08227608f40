package traffic

import (
	"cmp"
	"fmt"
	"slices"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// Scenario builders for the paper's experiments. Each returns a merged
// Source plus enough metadata for the harness to attribute output
// bandwidth to aggregates.

// AggregateID tags the five aggregates of the ACC experiments: FlowID
// 1-4 are the constant-bit-rate benign aggregates, 5 is the attack.
const (
	AggAttack uint32 = 5
)

// benignAggregate builds CBR aggregate i (1-4) of the Fig. 2/3
// experiments: each aggregate owns a distinct destination /24 so both
// ACC's prefix inference and ACC-Turbo's clustering can separate them.
func benignAggregate(i uint32, start, end eventsim.Time, rateBits float64) Source {
	spec := FlowSpec{
		SrcIP:    packet.V4Addr{172, 16, byte(i), 0},
		DstIP:    packet.V4Addr{10, byte(50 * i), byte(i), 0},
		Protocol: packet.ProtoUDP,
		SrcPort:  10_000 + uint16(i),
		DstPort:  20_000 + uint16(i),
		TTL:      64,
		Size:     500,
		Label:    packet.Benign,
		FlowID:   i,
		// A few hosts per aggregate; aggregates are separated by the
		// second destination byte, mirroring the prefix-distinct
		// aggregates of the original experiment.
		DstHostBits: 4,
	}
	return NewCBR(start, end, rateBits, spec.Factory(int64(i)*7919))
}

// attackSpec is aggregate 5: a UDP flood against its own /24.
func attackSpec() FlowSpec {
	return FlowSpec{
		SrcIP:       packet.V4Addr{192, 0, 2, 0},
		DstIP:       packet.V4Addr{10, 250, 5, 0},
		Protocol:    packet.ProtoUDP,
		SrcPort:     123,
		DstPort:     20_005,
		TTL:         54,
		Size:        500,
		Label:       packet.Malicious,
		Vector:      "ACC-attack",
		FlowID:      AggAttack,
		SrcHostBits: 8,
		DstHostBits: 4,
	}
}

// ACCOriginalTiming is ACCOriginal's attack: silent until 13 s, a 6 s
// ramp up to its peak, held until 25 s, and a 6 s ramp down to zero.
func ACCOriginalTiming() eventsim.Pulses {
	return eventsim.Pulses{First: 13 * eventsim.Second, Len: 18 * eventsim.Second, Ramp: 6 * eventsim.Second, Count: 1}
}

// ACCOriginal reproduces the workload of Fig. 2 (the experiment from
// the original ACC paper): four CBR aggregates at fairRate each, plus a
// variable-rate attack on ACCOriginalTiming peaking at 3x linkRate, the
// bottleneck capacity in bits/second. The run lasts 50 s.
func ACCOriginal(linkRate float64) Source {
	end := 50 * eventsim.Second
	fair := linkRate * 0.23 // 4 x 0.23 ~ 92% load before the attack
	srcs := []Source{
		benignAggregate(1, 0, end, fair),
		benignAggregate(2, 0, end, fair),
		benignAggregate(3, 0, end, fair),
		benignAggregate(4, 0, end, fair),
	}
	ramp := ACCOriginalTiming()
	start, stop := ramp.Window(0)
	srcs = append(srcs, NewRated(start, stop, ramped(ramp, floodMultiple*linkRate), attackSpec().Factory(101)))
	return Merge(srcs...)
}

// PulseWaveTiming is PulseWave's attack schedule: four pulses of
// pulseLen starting at 5, 15, 25 and 35 s.
func PulseWaveTiming(pulseLen eventsim.Time) eventsim.Pulses {
	return eventsim.Pulses{First: 5 * eventsim.Second, Len: pulseLen, Period: 10 * eventsim.Second, Count: 4}
}

// PulseWave reproduces the workload of Fig. 3: four benign CBR
// aggregates transmitting at about the link capacity, plus a pulse-wave
// attack on PulseWaveTiming(pulseLen), bursting at pulseRate. When
// morphing is true, each pulse uses a different attack vector
// (destination subnet and signature), the §2.2 morphing scenario;
// otherwise all pulses share aggregate 5's signature.
func PulseWave(linkRate float64, pulseRate float64, pulseLen eventsim.Time, morphing bool) Source {
	end := 50 * eventsim.Second
	fair := linkRate * 0.24 // benign ~ link capacity in total
	srcs := []Source{
		benignAggregate(1, 0, end, fair),
		benignAggregate(2, 0, end, fair),
		benignAggregate(3, 0, end, fair),
		benignAggregate(4, 0, end, fair),
	}
	vectors := []Vector{
		{Name: "NTP-pulse", Class: Reflection, Spec: attackSpec()},
		VectorsMust("DNS"),
		VectorsMust("SSDP"),
		SYNFlood(),
	}
	pulses := PulseWaveTiming(pulseLen)
	for i := range pulses.Count {
		at, stop := pulses.Window(i)
		var pulse Source
		if morphing {
			// Every pulse counts as the one attack aggregate of Fig. 3.
			v := vectors[i]
			v.Spec.FlowID = AggAttack
			pulse = v.Flood(at, stop, pulseRate, packet.V4Addr{10, 250, byte(5 + i), byte(i)}, 0, int64(211+i))
		} else {
			spec := attackSpec()
			pulse = NewCBR(at, stop, pulseRate, spec.Factory(int64(211+i)))
		}
		srcs = append(srcs, pulse)
	}
	return Merge(srcs...)
}

// VectorsMust returns the vector of the given Fig. 9a name, panicking on
// a typo (scenario construction only).
func VectorsMust(name string) Vector {
	for _, v := range Vectors() {
		if v.Name == name {
			return v
		}
	}
	panic(fmt.Sprintf("traffic: unknown attack vector %q", name))
}

// AttackVariation selects the Table 3 attack shapes.
type AttackVariation uint8

// Table 3 rows.
const (
	// NoAttack runs background traffic only.
	NoAttack AttackVariation = iota
	// SingleFlow is a UDP flood sharing one 5-tuple.
	SingleFlow
	// CarpetBombing spreads the flood over a /24 destination prefix.
	CarpetBombing
	// SourceSpoofing randomizes the source address (and port).
	SourceSpoofing
)

// String names the variation as in Table 3.
func (v AttackVariation) String() string {
	switch v {
	case NoAttack:
		return "No Attack"
	case SingleFlow:
		return "Single Flow"
	case CarpetBombing:
		return "Carpet Bombing"
	case SourceSpoofing:
		return "Source Spoofing"
	default:
		return fmt.Sprintf("variation(%d)", uint8(v))
	}
}

// Variation builds the §7.2 hardware-comparison workload: CAIDA-like
// background at bgRate for the full window, with a UDP-flood attack of
// the given shape at attackRate between attackStart and end.
func Variation(v AttackVariation, bgRate, attackRate float64, attackStart, end eventsim.Time, seed int64) Source {
	bg := NewBackground(BackgroundConfig{
		Rate:  bgRate,
		Start: 0,
		End:   end,
		Seed:  seed,
	})
	if v == NoAttack {
		return bg
	}
	spec := FlowSpec{
		SrcIP:    packet.V4Addr{10, 9, 8, 7},
		DstIP:    packet.V4Addr{198, 18, 50, 1}, // inside the background's destination space
		Protocol: packet.ProtoUDP,
		SrcPort:  33333,
		DstPort:  44444,
		TTL:      60,
		Size:     variationFloodSize,
		Label:    packet.Malicious,
		Vector:   "UDP",
		FlowID:   AggAttack,
	}
	switch v {
	case CarpetBombing:
		spec.DstHostBits = 8
		spec.Vector = "UDP-carpet"
	case SourceSpoofing:
		spec.SrcHostBits = 32
		spec.RandomSrcPort = true
		spec.Vector = "UDP-spoofed"
	}
	attack := NewCBR(attackStart, end, attackRate, spec.Factory(seed+1))
	return Merge(bg, attack)
}

// CICDDoSDay builds the §8 simulation workload: continuous CAIDA-like
// background with the nine attack vectors firing one after another,
// each active for vectorLen with a gap of vectorGap. Rates are in
// bits/second. The returned vector list gives each attack's name and
// its [start, end) window for per-vector evaluation.
type AttackWindow struct {
	Vector Vector
	Start  eventsim.Time
	End    eventsim.Time
}

// CICDDoSDay generates the compressed attack day.
func CICDDoSDay(bgRate, attackRate float64, vectorLen, vectorGap eventsim.Time, seed int64) (Source, []AttackWindow) {
	vectors := Vectors()
	day := eventsim.Pulses{First: vectorGap, Len: vectorLen, Period: vectorLen + vectorGap, Count: len(vectors)}
	_, last := day.Window(day.Count - 1)
	total := last + vectorGap
	bg := NewBackground(BackgroundConfig{
		Rate:  bgRate,
		Start: 0,
		End:   total,
		Seed:  seed,
	})
	srcs := []Source{bg}
	windows := make([]AttackWindow, 0, len(vectors))
	victim := packet.V4Addr{198, 18, 99, 1}
	for i, v := range vectors {
		at, stop := day.Window(i)
		srcs = append(srcs, v.Flood(at, stop, attackRate, victim, 0, seed+int64(i)*31))
		windows = append(windows, AttackWindow{Vector: v, Start: at, End: stop})
	}
	return Merge(srcs...), windows
}

// Attack rates as multiples of the link, and the Table 3 flood's size.
const (
	floodMultiple      = 3 // the ACC ramp's peak, the pulses, the CICDDoS vectors
	variationMultiple  = 10
	variationFloodSize = 1000
)

// fastestPace is the named scenario's source whose sends are closest at
// any link: size bytes at mult times it, as Scenario builds it (for the
// background, its flows on average); benign traffic beside a flood never
// binds.
func fastestPace(name string) (mult, size float64, err error) {
	switch name {
	case "accoriginal", "pulsewave":
		return floodMultiple, float64(attackSpec().Size), nil
	case "morphing":
		return floodMultiple, float64(SYNFlood().Spec.Size), nil // its last pulse
	case "cicddos":
		v := slices.MinFunc(Vectors(), func(a, b Vector) int { return cmp.Compare(a.Spec.Size, b.Spec.Size) })
		return floodMultiple, float64(v.Spec.Size), nil
	case "singleflow", "carpet", "spoofed":
		return variationMultiple, variationFloodSize, nil
	case "background":
		return 1, meanFlowPackets * meanPacketBytes(), nil
	}
	return 0, 0, fmt.Errorf("unknown scenario %q", name)
}

// ScenarioNames lists the workloads Scenario builds, in flag-help form.
const ScenarioNames = "accoriginal|pulsewave|morphing|cicddos|singleflow|carpet|spoofed|background"

// Scenario builds a command-line workload by name (one of
// ScenarioNames) over a bottleneck of link bits/s. end bounds the
// workloads whose length the paper does not fix (the Table 3 shapes and
// background); seed drives the random ones.
func Scenario(name string, link float64, end eventsim.Time, seed int64) (Source, error) {
	switch name {
	case "accoriginal":
		return ACCOriginal(link), nil
	case "pulsewave":
		return PulseWave(link, floodMultiple*link, 5*eventsim.Second, false), nil
	case "morphing":
		return PulseWave(link, floodMultiple*link, 5*eventsim.Second, true), nil
	case "cicddos":
		src, _ := CICDDoSDay(link*0.6, link*floodMultiple, 4*eventsim.Second, 2*eventsim.Second, seed)
		return src, nil
	case "singleflow":
		return Variation(SingleFlow, link*0.7, link*variationMultiple, end/10, end, seed), nil
	case "carpet":
		return Variation(CarpetBombing, link*0.7, link*variationMultiple, end/10, end, seed), nil
	case "spoofed":
		return Variation(SourceSpoofing, link*0.7, link*variationMultiple, end/10, end, seed), nil
	case "background":
		return NewBackground(BackgroundConfig{Rate: link, End: end, Seed: seed}), nil
	}
	return nil, fmt.Errorf("unknown scenario %q", name)
}
