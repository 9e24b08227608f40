package experiments

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/jaqen"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// singleFlood is the §7.2.2 workload: CAIDA-like background with a
// single-5-tuple UDP flood starting at attackStart.
func singleFlood(seed int64, attackStart, end eventsim.Time) scenario {
	return scenario{func() traffic.Source {
		return traffic.Variation(traffic.SingleFlow, hwBgRate, 10*hwLink, attackStart, end, seed)
	}, hwLink, end}
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
	end := sized(opt, 100*eventsim.Second, 60*eventsim.Second)
	attackStart := 20 * eventsim.Second
	flood := singleFlood(opt.Seed, attackStart, end)
	cfg := hwTurboConfig()
	// (c) Jaqen reprogramming: the one model of the program-swap downtime,
	// measured as the paper does — steady traffic through a switch that
	// becomes a black hole for 11.5 s, the paper's measured swap time,
	// halfway through the run, then forwards again.
	background := scenario{func() traffic.Source {
		return traffic.NewBackground(traffic.BackgroundConfig{Rate: hwBgRate, Start: 0, End: end, Seed: opt.Seed})
	}, hwLink, end}
	swapStart := end / 2
	swapEnd := swapStart + 11_500*eventsim.Millisecond
	programSwap := func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, o *legOut) *netsim.Port {
		port := fifo(eng, rec, link, o)
		port.AddIngress(func(now eventsim.Time, _ *packet.Packet) bool {
			return now < swapStart || now >= swapEnd
		})
		return port
	}
	// (d) Jaqen with the defense already deployed: detection needs the
	// threshold crossed in two consecutive 5 s windows.
	jcfg := jaqen.DefaultConfig()
	jcfg.Threshold = thresholdFor(10*hwLink, 1000, jcfg.Window) / 2 // comfortably crossed by the flood

	var fifoRec *netsim.Recorder
	runLegs(opt, r, []leg{
		// (a) FIFO.
		flood.through(fifo, func(r *Result, o *legOut) {
			fifoRec = o.rec
			classThroughput("FIFO/")(r, o)
		}),
		// (b) ACC-Turbo: reaction bounded by one poll+deploy cycle.
		flood.through(turbo(cfg), func(r *Result, o *legOut) {
			classThroughput("ACC-Turbo/")(r, o)
			if react := o.rec.RecoveryTime(attackStart, 0.75); react >= 0 {
				r.Note("ACC-Turbo reaction: benign recovered the bulk (>=75%%) of its throughput within %.0f s of attack start "+
					"(paper: ~1 s; controller cycle here %.2f s). With only 4 clusters, ~1/4 of background shares the "+
					"attack's cluster (Voronoi collateral), so recovery is near-complete rather than total.",
					(react - attackStart).Seconds(), (cfg.PollInterval + cfg.DeployDelay).Seconds())
			} else {
				r.Note("ACC-Turbo: benign throughput never recovered")
			}
			// First-second comparison: mitigation starts within one
			// controller cycle even though full recovery takes
			// collateral into account.
			fifoB := fifoRec.DeliveredBits(packet.Benign)
			turboB := o.rec.DeliveredBits(packet.Benign)
			bin := int(attackStart / eventsim.Second)
			if bin < len(fifoB) && bin < len(turboB) && fifoB[bin] > 0 {
				r.Note("first attack second: ACC-Turbo delivers %.1fx the benign throughput of FIFO", turboB[bin]/fifoB[bin])
			}
		}),
		background.through(programSwap, func(r *Result, o *legOut) {
			r.Add(throughputSeries(o.rec, packet.Benign, "Reprogram/Traffic"))
			downtime := 0
			for _, v := range o.rec.DeliveredBits(packet.Benign) {
				if v == 0 {
					downtime++
				}
			}
			r.Note("Jaqen (defense not deployed): %d s of full downtime during program swap (paper: 11.5 s avg, 11x slower than ACC-Turbo)", downtime)
		}),
		flood.through(withJaqen(jcfg), func(r *Result, o *legOut) {
			classThroughput("Jaqen/")(r, o)
			if o.jaqen.FirstMitigation >= 0 {
				r.Note("Jaqen (defense deployed): reaction %.1f s (paper: ~10 s — two 5 s windows)",
					(o.jaqen.FirstMitigation - attackStart).Seconds())
			} else {
				r.Note("Jaqen (defense deployed): never mitigated")
			}
		}),
	})
	return r
}

// thresholdFor converts an attack rate and packet size into packets per
// detection window.
func thresholdFor(rateBits float64, pktBytes int, window eventsim.Time) uint64 {
	return uint64(rateBits / 8 / float64(pktBytes) * window.Seconds())
}
