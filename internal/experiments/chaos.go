package experiments

import (
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// chaosFailOpenAfter arms the control-plane watchdog in the chaos run:
// with a 250 ms poll + 250 ms deploy loop, 2 s of decision staleness
// means four missed cycles — clearly a stalled controller, not jitter.
const chaosFailOpenAfter = 2 * eventsim.Second

// chaosSpec is the fault plan the chaos experiment injects into the
// fig6/fig8 pulse-wave scenario (pulses at [10,20), [30,40), ...):
//
//   - the controller stalls for 2.5 s right as the first pulse of each
//     half starts (12 s, 52 s) — long enough to trip the watchdog and
//     fail open mid-attack;
//   - the bottleneck link flaps down for 250 ms in the middle of each
//     pulse (15 s, then every 20 s);
//   - light packet loss/duplication/corruption at the ingress.
//
// All of it is derived from one seed, so two runs with the same seed
// are byte-identical — the golden manifest pins exactly those bytes.
func chaosSpec(end eventsim.Time) faults.Spec {
	flaps := int((end - 15*eventsim.Second) / (20 * eventsim.Second))
	if flaps < 1 {
		flaps = 1
	}
	spec := faults.Spec{
		Flaps: []faults.FlapSpec{{
			First:  15 * eventsim.Second,
			Down:   250 * eventsim.Millisecond,
			Period: 20 * eventsim.Second,
			Count:  flaps,
		}},
		Stalls:   []faults.StallSpec{{At: 12 * eventsim.Second, For: 2500 * eventsim.Millisecond}},
		DropP:    0.002,
		DupP:     0.001,
		CorruptP: 0.002,
	}
	if end > 52*eventsim.Second {
		spec.Stalls = append(spec.Stalls, faults.StallSpec{At: 52 * eventsim.Second, For: 2500 * eventsim.Millisecond})
	}
	return spec
}

// runChaosFIFO is runFIFO with the injector's port-level faults (link
// flaps, packet mangling) applied: the no-defense baseline experiences
// the identical fault environment, so defense-vs-no-defense stays an
// apples-to-apples comparison.
func runChaosFIFO(src traffic.Source, linkRate float64, until eventsim.Time, inj *faults.Injector) *netsim.Recorder {
	return replay(src, until, func(eng *eventsim.Engine, rec *netsim.Recorder) *netsim.Port {
		port := netsim.NewPort(eng, queue.NewFIFO(bufferFor(linkRate)), linkRate, rec)
		inj.AttachInterposer(eng, port)
		inj.FlapLinks(eng, port)
		return port
	})
}

// runChaosTurbo replays src through an ACC-Turbo port under the full
// fault plan: packet mangling and link flaps at the port, controller
// stalls through the clock wrapper, and the watchdog armed so the
// stalls exercise fail-open.
func runChaosTurbo(src traffic.Source, linkRate float64, until eventsim.Time, cfg core.Config, inj *faults.Injector) (rec *netsim.Recorder, turbo *core.Turbo) {
	cfg.FailOpenAfter = chaosFailOpenAfter
	cfg.WrapClock = inj.ClockWrapper()
	rec = replay(src, until, func(eng *eventsim.Engine, rec *netsim.Recorder) (port *netsim.Port) {
		port, turbo = core.Attach(eng, linkRate, rec, cfg)
		inj.AttachInterposer(eng, port)
		inj.FlapLinks(eng, port)
		return port
	})
	return rec, turbo
}

// tailMean averages the last n entries of a series (the steady-state
// window after all injected faults have cleared).
func tailMean(series []float64, n int) float64 {
	if len(series) < n || n <= 0 {
		return 0
	}
	var sum float64
	for _, v := range series[len(series)-n:] {
		sum += v
	}
	return sum / float64(n)
}

// Chaos replays the §7.1 pulse-wave scenario under injected faults —
// controller stalls, link flaps, packet mangling — and reports the
// fail-open safety property: ACC-Turbo under chaos keeps benign
// throughput at or above the no-defense FIFO baseline experiencing the
// same faults, and returns to the clean run's steady state once the
// faults clear. Same seed, same output, byte for byte.
func Chaos(opt Options) *Result {
	r := &Result{
		ID:     "chaos",
		Title:  "pulse-wave mitigation under injected faults (chaos harness)",
		XLabel: "time (s)",
		YLabel: "throughput (Mbps)",
	}
	end := 100 * eventsim.Second
	if opt.Quick {
		end = 50 * eventsim.Second
	}
	spec := chaosSpec(end)
	chaosSeed := uint64(opt.Seed)

	// Three runs over identical traffic: the faulted FIFO baseline, the
	// faulted defense, and the clean defense (the recovery reference).
	// FIFO and Turbo get injectors with the same seed, so the two runs
	// mangle the identical packet sequence identically.
	recFIFO := runChaosFIFO(hwPulseWave(opt.Seed, end), hwLink, end, faults.New(chaosSeed, spec))
	injTurbo := faults.New(chaosSeed, spec)
	recTurbo, turbo := runChaosTurbo(hwPulseWave(opt.Seed, end), hwLink, end, hwTurboConfig(), injTurbo)
	clean := runTurbo(hwPulseWave(opt.Seed, end), hwLink, end, hwTurboConfig())

	r.Add(throughputSeries(recFIFO, packet.Benign, "FIFO+faults/Output Benign"))
	r.Add(throughputSeries(recTurbo, packet.Benign, "ACC-Turbo+faults/Output Benign"))
	r.Add(throughputSeries(recTurbo, packet.Malicious, "ACC-Turbo+faults/Output Attack"))
	r.Add(throughputSeries(clean.rec, packet.Benign, "ACC-Turbo clean/Output Benign"))

	h := turbo.ControlPlane().Health()
	r.Note("injected: %d pkts dropped, %d duplicated, %d corrupted, %d link transitions, %d polls suppressed",
		injTurbo.PacketsDropped.Value(), injTurbo.PacketsDuplicated.Value(), injTurbo.PacketsCorrupted.Value(),
		injTurbo.LinkTransitions.Value(), injTurbo.PollsSuppressed.Value())
	r.Note("watchdog: %d trips, %d fail-open engagements, fail-open now=%v, %d ranked deployments",
		h.WatchdogTrips, h.FailOpenEngagements, h.FailOpen, h.Deployments)
	r.Note("benign drops under faults: ACC-Turbo %.2f%% vs FIFO %.2f%% (clean ACC-Turbo %.2f%%)",
		recTurbo.BenignDropPercent(), recFIFO.BenignDropPercent(), clean.rec.BenignDropPercent())

	// Recovery: the final quiet decade has no pulses and no faults, so
	// the faulted run's benign throughput must be back at the clean
	// run's steady state.
	const tail = 10
	recTail := tailMean(recTurbo.DeliveredBits(packet.Benign), tail)
	cleanTail := tailMean(clean.rec.DeliveredBits(packet.Benign), tail)
	ratio := 0.0
	if cleanTail > 0 {
		ratio = recTail / cleanTail
	}
	r.Note("recovery: benign throughput over final %ds = %.0f%% of the clean run's steady state", tail, 100*ratio)
	return r
}
