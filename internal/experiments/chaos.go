package experiments

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
	"accturbo/internal/packet"
)

// chaosFailOpenAfter arms the control-plane watchdog in the chaos run:
// with a 250 ms poll + 250 ms deploy loop, 2 s of decision staleness
// means four missed cycles — clearly a stalled controller, not jitter.
const chaosFailOpenAfter = 2 * eventsim.Second

// chaosSpec is the fault plan the chaos experiment injects into the
// fig6/fig8 pulse wave (hwPulses):
//
//   - the controller stalls for 2.5 s from 2 s into the first pulse of
//     each half of the wave — long enough to trip the watchdog and fail
//     open mid-attack;
//   - the bottleneck link flaps down for 250 ms in the middle of each
//     pulse period;
//   - light packet loss/duplication/corruption at the ingress.
//
// All of it is derived from one seed, so two runs with the same seed
// are byte-identical — the golden manifest pins exactly those bytes.
func chaosSpec(end eventsim.Time) faults.Spec {
	first, _ := hwPulses.Window(0)
	flap := faults.FlapSpec{First: first + hwPulses.Len/2, Len: 250 * eventsim.Millisecond, Period: hwPulses.Period}
	flap.Count = max(int((end-flap.First)/flap.Period), 1)
	spec := faults.Spec{
		Flaps:    []faults.FlapSpec{flap},
		DropP:    0.002,
		DupP:     0.001,
		CorruptP: 0.002,
	}
	for _, pulse := range []int{0, 2} {
		start, _ := hwPulses.Window(pulse)
		if at := start + 2*eventsim.Second; at < end {
			spec.Stalls = append(spec.Stalls, faults.StallSpec{At: at, For: 2500 * eventsim.Millisecond})
		}
	}
	return spec
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
	sc := hwPulse(opt)
	spec := chaosSpec(sc.end)
	// The defense under faults arms the watchdog, so the controller
	// stalls exercise fail-open.
	failOpen := hwTurboConfig()
	failOpen.FailOpenAfter = chaosFailOpenAfter

	// Three runs over identical traffic: the faulted FIFO baseline, the
	// faulted defense, and the clean defense (the recovery reference).
	// FIFO and Turbo get injectors with the same seed, so the two runs
	// mangle the identical packet sequence identically: the no-defense
	// baseline experiences the identical fault environment, and
	// defense-vs-no-defense stays an apples-to-apples comparison.
	outs := runLegs(opt, r, []leg{
		sc.through(faulted(fifo, uint64(opt.Seed), spec), func(r *Result, o *legOut) {
			r.Add(throughputSeries(o.rec, packet.Benign, "FIFO+faults/Output Benign"))
		}),
		sc.through(faulted(turbo(failOpen), uint64(opt.Seed), spec), classThroughput("ACC-Turbo+faults/Output ")),
		sc.through(turbo(hwTurboConfig()), func(r *Result, o *legOut) {
			r.Add(throughputSeries(o.rec, packet.Benign, "ACC-Turbo clean/Output Benign"))
		}),
	})
	recFIFO, recTurbo, clean := outs[0].rec, outs[1].rec, outs[2].rec
	injTurbo := outs[1].inj

	h := outs[1].turbo.ControlPlane().Health()
	r.Note("injected: %d pkts dropped, %d duplicated, %d corrupted, %d link transitions, %d polls suppressed",
		injTurbo.PacketsDropped.Value(), injTurbo.PacketsDuplicated.Value(), injTurbo.PacketsCorrupted.Value(),
		injTurbo.LinkTransitions.Value(), injTurbo.PollsSuppressed.Value())
	r.Note("watchdog: %d trips, %d fail-open engagements, fail-open now=%v, %d ranked deployments",
		h.WatchdogTrips, h.FailOpenEngagements, h.FailOpen, h.Deployments)
	r.Note("benign drops under faults: ACC-Turbo %.2f%% vs FIFO %.2f%% (clean ACC-Turbo %.2f%%)",
		recTurbo.BenignDropPercent(), recFIFO.BenignDropPercent(), clean.BenignDropPercent())

	// Recovery: the final quiet decade has no pulses and no faults, so
	// the faulted run's benign throughput must be back at the clean
	// run's steady state.
	const tail = 10
	recTail := tailMean(recTurbo.DeliveredBits(packet.Benign), tail)
	cleanTail := tailMean(clean.DeliveredBits(packet.Benign), tail)
	ratio := 0.0
	if cleanTail > 0 {
		ratio = recTail / cleanTail
	}
	r.Note("recovery: benign throughput over final %ds = %.0f%% of the clean run's steady state", tail, 100*ratio)
	return r
}
