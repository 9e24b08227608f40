package experiments

import (
	"accturbo/internal/acc"
	"accturbo/internal/eventsim"
	"accturbo/internal/traffic"
)

// morphingPulses is the §2.2 workload: four benign CBR aggregates at
// about link capacity plus four 5 s attack pulses at 3× the link.
var morphingPulses = scenario{func() traffic.Source {
	return traffic.PulseWave(fig2Link, 3*fig2Link, 5*eventsim.Second, true)
}, fig2Link, 50 * eventsim.Second}

// Fig3 reproduces the pulse-wave / morphing-attack experiment of §2.2:
// four benign CBR aggregates at about link capacity plus four attack
// pulses (5/15/25/35 s), under FIFO, ACC, and ACC-Turbo, plus the
// speed-vs-accuracy sweep of Fig. 3b (% benign drops vs ACC's K).
func Fig3(opt Options) *Result {
	r := &Result{
		ID:     "fig3",
		Title:  "pulse-wave (morphing) attack",
		XLabel: "time (s)",
		YLabel: "fraction of link bandwidth",
	}
	sc := morphingPulses
	legs := []leg{
		// (a) FIFO.
		sc.through(fifo, func(r *Result, o *legOut) {
			addAggregateShares(r, "FIFO", o.rec, fig2Link)
			r.Note("FIFO: benign drops %.1f%%", o.rec.BenignDropPercent())
		}),
		// (c) ACC with the §2.1 configuration.
		sc.through(withACC(acc.DefaultConfig()), func(r *Result, o *legOut) {
			addAggregateShares(r, "ACC", o.rec, fig2Link)
			pulsesDefended := 0
			if o.acc.FirstActivation >= 0 {
				for _, start := range []eventsim.Time{5, 15, 25, 35} {
					if o.acc.FirstActivation <= start*eventsim.Second {
						pulsesDefended++
					}
				}
			}
			r.Note("ACC: benign drops %.1f%%, first activation t=%.1f s (defends %d of 4 pulses)",
				o.rec.BenignDropPercent(), o.acc.FirstActivation.Seconds(), pulsesDefended)
		}),
		// (d) ACC-Turbo.
		sc.through(turbo(accTurboFig2Config()), func(r *Result, o *legOut) {
			addAggregateShares(r, "ACC-Turbo", o.rec, fig2Link)
			r.Note("ACC-Turbo: benign drops %.1f%% (paper: mitigates all pulses)", o.rec.BenignDropPercent())
		}),
	}
	// (b) speed vs accuracy: benign drops as a function of K. The last K
	// is acc.DefaultConfig's 2 s, whose run is row 1's.
	ks := sized(opt, []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 1.5, 2}, []float64{0.05, 0.5, 2})
	for _, k := range ks[:len(ks)-1] {
		cfg := acc.DefaultConfig()
		cfg.K = eventsim.FromSeconds(k)
		legs = append(legs, sc.through(withACC(cfg), nil))
	}
	drops := benignDrops(runLegs(opt, r, legs))
	yACC := append(drops[3:], drops[1])
	r.Add(Series{Name: "Fig3b/ACC benign drops vs K", X: ks, Y: yACC})
	r.Add(flatSeries("Fig3b/FIFO", ks, drops[0]))
	r.Add(flatSeries("Fig3b/ACC-Turbo", ks, drops[2]))
	r.Note("Fig3b: best ACC configuration still drops %.1f%% of benign traffic (paper: ~20%%); ACC-Turbo %.1f%%",
		minOf(yACC), drops[2])
	return r
}
