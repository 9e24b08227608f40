package experiments

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/jaqen"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// fig7Flood is the §7.2.2 workload: CAIDA-like background with a
// single-5-tuple UDP flood starting at attackStart.
func fig7Flood(seed int64, attackStart, end eventsim.Time) traffic.Source {
	return traffic.Variation(traffic.SingleFlow, hwBgRate, 10*hwLink, attackStart, end, seed)
}

// Fig7 reproduces the reaction-time comparison: (a) FIFO baseline, (b)
// ACC-Turbo's ~1 s reaction, (c) Jaqen's reprogramming downtime when a
// new mitigation must be deployed, and (d) Jaqen's ~10 s reaction with
// the defense already deployed.
func Fig7(opt Options) *Result {
	r := &Result{
		ID:     "fig7",
		Title:  "reaction-time evaluation",
		XLabel: "time (s)",
		YLabel: "throughput (Mbps)",
	}
	end := 100 * eventsim.Second
	if opt.Quick {
		end = 60 * eventsim.Second
	}
	attackStart := 20 * eventsim.Second

	// (a) FIFO.
	recFIFO := runFIFO(fig7Flood(opt.Seed, attackStart, end), hwLink, end)
	r.Add(throughputSeries(recFIFO, packet.Benign, "FIFO/Benign"))
	r.Add(throughputSeries(recFIFO, packet.Malicious, "FIFO/Attack"))

	// (b) ACC-Turbo: reaction bounded by one poll+deploy cycle.
	cfg := hwTurboConfig()
	tr := runTurbo(fig7Flood(opt.Seed, attackStart, end), hwLink, end, cfg)
	r.Add(throughputSeries(tr.rec, packet.Benign, "ACC-Turbo/Benign"))
	r.Add(throughputSeries(tr.rec, packet.Malicious, "ACC-Turbo/Attack"))
	turboReact := tr.rec.RecoveryTime(attackStart, 0.75)
	if turboReact >= 0 {
		r.Note("ACC-Turbo reaction: benign recovered the bulk (>=75%%) of its throughput within %.0f s of attack start "+
			"(paper: ~1 s; controller cycle here %.2f s). With only 4 clusters, ~1/4 of background shares the "+
			"attack's cluster (Voronoi collateral), so recovery is near-complete rather than total.",
			(turboReact - attackStart).Seconds(), (cfg.PollInterval + cfg.DeployDelay).Seconds())
	} else {
		r.Note("ACC-Turbo: benign throughput never recovered")
	}
	// First-second comparison: mitigation starts within one controller
	// cycle even though full recovery takes collateral into account.
	fifoB := recFIFO.DeliveredBits(packet.Benign)
	turboB := tr.rec.DeliveredBits(packet.Benign)
	bin := int(attackStart / eventsim.Second)
	if bin < len(fifoB) && bin < len(turboB) && fifoB[bin] > 0 {
		r.Note("first attack second: ACC-Turbo delivers %.1fx the benign throughput of FIFO", turboB[bin]/fifoB[bin])
	}

	// (c) Jaqen reprogramming: program-swap downtime measured as the
	// paper does — traffic through a switch that swaps programs at
	// t=60 s, with 11.5 s of downtime.
	recSwap := runProgramSwap(opt.Seed, end)
	r.Add(throughputSeries(recSwap, packet.Benign, "Reprogram/Traffic"))
	downtime := 0
	for _, v := range recSwap.DeliveredBits(packet.Benign) {
		if v == 0 {
			downtime++
		}
	}
	r.Note("Jaqen (defense not deployed): %d s of full downtime during program swap (paper: 11.5 s avg, 11x slower than ACC-Turbo)", downtime)

	// (d) Jaqen with the defense already deployed: detection needs the
	// threshold crossed in two consecutive 5 s windows.
	jcfg := jaqen.DefaultConfig()
	jcfg.Threshold = thresholdFor(10*hwLink, 1000, jcfg.Window) / 2 // comfortably crossed by the flood
	recJ, j := runJaqen(fig7Flood(opt.Seed, attackStart, end), hwLink, end, jcfg)
	r.Add(throughputSeries(recJ, packet.Benign, "Jaqen/Benign"))
	r.Add(throughputSeries(recJ, packet.Malicious, "Jaqen/Attack"))
	if j.FirstMitigation >= 0 {
		r.Note("Jaqen (defense deployed): reaction %.1f s (paper: ~10 s — two 5 s windows)",
			(j.FirstMitigation - attackStart).Seconds())
	} else {
		r.Note("Jaqen (defense deployed): never mitigated")
	}
	return r
}

// thresholdFor converts an attack rate and packet size into packets per
// detection window.
func thresholdFor(rateBits float64, pktBytes int, window eventsim.Time) uint64 {
	return uint64(rateBits / 8 / float64(pktBytes) * window.Seconds())
}

// runProgramSwap is the one model of Jaqen's program-swap downtime
// (Fig. 7c): steady traffic through a switch that becomes a black hole
// for 11.5 s, the paper's measured swap time, halfway through the run,
// then forwards again.
func runProgramSwap(seed int64, end eventsim.Time) *netsim.Recorder {
	swapStart := end / 2
	swapEnd := swapStart + 11_500*eventsim.Millisecond
	bg := traffic.NewBackground(traffic.BackgroundConfig{
		Rate: hwBgRate, Start: 0, End: end, Seed: seed,
	})
	return replay(bg, end, func(eng *eventsim.Engine, rec *netsim.Recorder) *netsim.Port {
		port := netsim.NewPort(eng, queue.NewFIFO(bufferFor(hwLink)), hwLink, rec)
		port.AddIngress(func(now eventsim.Time, p *packet.Packet) bool {
			return now < swapStart || now >= swapEnd
		})
		return port
	})
}
