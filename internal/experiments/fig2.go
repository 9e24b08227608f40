package experiments

import (
	"fmt"

	"accturbo/internal/acc"
	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// fig2Link is the bottleneck rate for the §2 experiments. The original
// ACC experiment is rate-free (everything is reported as a fraction of
// link bandwidth); 10 Mbps keeps runs fast.
const fig2Link = 10e6

// accTurboFig2Config is ACC-Turbo configured like the §2 comparison: 4
// clusters over destination-address bytes (the aggregates differ by
// destination /24), throughput ranking.
func accTurboFig2Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Clustering = cluster.DefaultConfig(10, packet.FeatureSet{
		packet.FDstIPByte1, packet.FDstIPByte2, packet.FDstIPByte3,
	})
	cfg.Clustering.SliceInit = true
	cfg.DeployDelay = 50 * eventsim.Millisecond
	cfg.ReseedInterval = eventsim.Second
	return cfg
}

// addAggregateShares appends the Fig. 2/3-style per-aggregate series.
func addAggregateShares(r *Result, prefix string, rec *netsim.Recorder, linkRate float64) {
	for id := uint32(1); id <= 5; id++ {
		s := shareSeries(rec, id, linkRate)
		s.Name = fmt.Sprintf("%s/Agg%d", prefix, id)
		r.Add(s)
	}
	total := totalShareSeries(rec, linkRate)
	total.Name = prefix + "/All"
	r.Add(total)
	r.Add(dropRateSeries(rec, prefix+"/DropRate"))
}

// Fig2 reproduces the original ACC experiment: five aggregates over a
// bottleneck under (a) FIFO, (b) ACC, (c) an ACC monitoring-window
// sweep, and (d) ACC-Turbo.
func Fig2(opt Options) *Result {
	r := &Result{
		ID:     "fig2",
		Title:  "ACC original experiment",
		XLabel: "time (s)",
		YLabel: "fraction of link bandwidth",
	}
	sc := scenario{func() traffic.Source { return traffic.ACCOriginal(fig2Link) }, fig2Link, 50 * eventsim.Second}
	legs := []leg{
		// (a) FIFO: the ramping attack captures the link.
		sc.through(fifo, func(r *Result, o *legOut) {
			addAggregateShares(r, "FIFO", o.rec, fig2Link)
			r.Note("FIFO: benign drops %.1f%%, attack peaks at %.2f of link",
				o.rec.BenignDropPercent(), maxOf(shareSeries(o.rec, 5, fig2Link).Y))
		}),
		// (b) ACC with the Table 4 configuration (K = 2 s).
		sc.through(withACC(acc.DefaultConfig()), func(r *Result, o *legOut) {
			addAggregateShares(r, "ACC", o.rec, fig2Link)
			if o.acc.FirstActivation >= 0 {
				r.Note("ACC (K=2s): reaction %.1f s after attack start (paper: ~4 s), benign drops %.1f%%",
					(o.acc.FirstActivation - traffic.ACCOriginalTiming().First).Seconds(), o.rec.BenignDropPercent())
			} else {
				r.Note("ACC (K=2s): never activated")
			}
		}),
	}
	// (c) Impact of K: drop-rate series and activation delay per K.
	for _, kSec := range sized(opt, []eventsim.Time{10, 15, 20, 25, 30, 35}, []eventsim.Time{10, 20, 35}) {
		cfg := acc.DefaultConfig()
		cfg.K = kSec * eventsim.Second
		legs = append(legs, sc.through(withACC(cfg), func(r *Result, o *legOut) {
			r.Add(dropRateSeries(o.rec, fmt.Sprintf("ACC/K=%ds/DropRate", kSec)))
			if o.acc.FirstActivation >= 0 {
				r.Note("ACC K=%ds: activation at t=%.0f s", kSec, o.acc.FirstActivation.Seconds())
			} else {
				r.Note("ACC K=%ds: never activated within 50 s", kSec)
			}
		}))
	}
	// (d) ACC-Turbo: sub-second mitigation, no threshold.
	legs = append(legs, sc.through(turbo(accTurboFig2Config()), func(r *Result, o *legOut) {
		addAggregateShares(r, "ACC-Turbo", o.rec, fig2Link)
		r.Note("ACC-Turbo: benign drops %.1f%%, attack drops %.1f%%, %d priority deployments",
			o.rec.BenignDropPercent(), o.rec.MaliciousDropPercent(), o.turbo.ControlPlane().Deployments())
	}))
	runLegs(opt, r, legs)
	return r
}

func maxOf(ys []float64) float64 {
	m := 0.0
	for _, v := range ys {
		if v > m {
			m = v
		}
	}
	return m
}
