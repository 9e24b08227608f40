package experiments

import (
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// Fig. 6/7 hardware setup, scaled 1:1000 (Gbps -> Mbps): a 10 "G"
// bottleneck, CAIDA-like background, and attack pulses peaking around
// 40 "G".
const (
	hwLink   = 10e6 // 10 Gbps -> 10 Mbps
	hwBgRate = 6e6  // background fills ~60% of the bottleneck
)

// hwTurboConfig mirrors §7.1: 4 clusters over {dst-IP low bytes, sport,
// dport}, throughput ranking, priorities updated "at the controller's
// maximum speed" — modeled as a 250 ms loop with 250 ms deployment.
func hwTurboConfig() core.Config {
	cfg := core.HardwareConfig()
	cfg.PollInterval = 250 * eventsim.Millisecond
	cfg.DeployDelay = 250 * eventsim.Millisecond
	// The prototype's controller re-initializes clusters periodically
	// so aggregates re-form as pulses morph.
	cfg.ReseedInterval = eventsim.Second
	return cfg
}

// hwPulseWave builds the §7.1 attack: four UDP-flood pulses of 10 s
// with 10 s interleave, each against a different address in a common
// subnet and a different port, peaking at ~4x the bottleneck.
func hwPulseWave(seed int64, end eventsim.Time) traffic.Source {
	bg := traffic.NewBackground(traffic.BackgroundConfig{
		Rate: hwBgRate, Start: 0, End: end, Seed: seed,
	})
	srcs := []traffic.Source{bg}
	for i := 0; i < 4; i++ {
		spec := traffic.FlowSpec{
			SrcIP:    packet.V4Addr{203, 0, 113, byte(10 + i)},
			DstIP:    packet.V4Addr{198, 18, 7, byte(1 + i)}, // common /24, distinct hosts
			Protocol: packet.ProtoUDP,
			SrcPort:  uint16(10_000 + i),
			DstPort:  uint16(7000 + i),
			TTL:      58,
			Size:     1000,
			Label:    packet.Malicious,
			Vector:   "UDP-pulse",
			FlowID:   traffic.AggAttack,
		}
		start := eventsim.Time(10+20*i) * eventsim.Second
		srcs = append(srcs, traffic.NewCBR(start, start+10*eventsim.Second, 4*hwLink, spec.Factory(seed+int64(i))))
	}
	return traffic.Merge(srcs...)
}

// hwPulse is the §7.1 pulse wave as a scenario: 100 s, or 50 s in quick
// mode.
func hwPulse(opt Options) scenario {
	end := sized(opt, 100*eventsim.Second, 50*eventsim.Second)
	return scenario{func() traffic.Source { return hwPulseWave(opt.Seed, end) }, hwLink, end}
}

// Fig6 reproduces the §7.1 hardware experiment: pulse-wave mitigation
// under FIFO vs ACC-Turbo, reporting output throughput per class.
func Fig6(opt Options) *Result {
	r := &Result{
		ID:     "fig6",
		Title:  "pulse-wave mitigation (hardware setup, 1:1000 scale)",
		XLabel: "time (s)",
		YLabel: "throughput (Mbps)",
	}
	sc := hwPulse(opt)
	outs := runLegs(opt, r, []leg{
		sc.through(fifo, classThroughput("FIFO/Output ")),
		sc.through(turbo(hwTurboConfig()), classThroughput("ACC-Turbo/Output ")),
	})
	fifoRec, turboRec := outs[0].rec, outs[1].rec

	// Throughput reduction during pulses, FIFO vs ACC-Turbo.
	redFIFO := pulseReduction(fifoRec.DeliveredBits(packet.Benign), sc.end)
	redTurbo := pulseReduction(turboRec.DeliveredBits(packet.Benign), sc.end)
	r.Note("FIFO: benign throughput reduction during pulses %.0f%% (paper: ~61%%)", redFIFO)
	r.Note("ACC-Turbo: benign throughput reduction during pulses %.0f%% (paper: ~0%%, full recovery)", redTurbo)
	r.Note("ACC-Turbo: benign drops %.2f%% vs FIFO %.2f%%",
		turboRec.BenignDropPercent(), fifoRec.BenignDropPercent())
	return r
}

// pulseReduction compares average benign throughput inside vs outside
// the attack pulses (pulses at [10,20), [30,40), ... seconds).
func pulseReduction(series []float64, end eventsim.Time) float64 {
	var inSum, outSum float64
	var inN, outN int
	for i := 0; i < len(series) && i < int(end/eventsim.Second); i++ {
		phase := (i / 10) % 2 // 0: quiet decade, 1: pulse decade
		if phase == 1 {
			inSum += series[i]
			inN++
		} else if i > 0 { // skip warm-up second
			outSum += series[i]
			outN++
		}
	}
	if inN == 0 || outN == 0 || outSum == 0 {
		return 0
	}
	avgIn := inSum / float64(inN)
	avgOut := outSum / float64(outN)
	red := 100 * (1 - avgIn/avgOut)
	if red < 0 {
		red = 0
	}
	return red
}
