package experiments

import (
	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// Ablations quantifies the design knobs the paper fixes by hardware
// constraints or convention: the control-loop period, the number of
// priority queues, Bloom-filter vs exact nominal sets, slice vs
// packet-seeded initialization, and the packet reordering introduced
// by priority updates (§10).
func Ablations(opt Options) *Result {
	r := &Result{
		ID:     "ablations",
		Title:  "design-knob ablations (extension)",
		XLabel: "x",
		YLabel: "benign drops (%)",
	}
	const link = 10e6
	end := sized(opt, 40*eventsim.Second, 15*eventsim.Second)
	sc := scenario{func() traffic.Source {
		return traffic.Variation(traffic.SingleFlow, 6e6, 6*link, end/8, end, opt.Seed)
	}, link, end}
	tuned := func(tweak func(*core.Config)) defense {
		cfg := hwTurboConfig()
		tweak(&cfg)
		return turbo(cfg)
	}

	// (a) control-loop period: the reaction-time lever of §7.
	periods := sized(opt, []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 5}, []float64{0.05, 0.5, 2})
	// (b) priority-queue count at fixed cluster count (8 clusters into
	// 1..8 queues; 1 queue degenerates to FIFO).
	queues := []float64{1, 2, 4, 8}
	var legs []leg
	for _, p := range periods {
		legs = append(legs, sc.through(tuned(func(c *core.Config) {
			c.PollInterval = eventsim.FromSeconds(p)
			c.DeployDelay = c.PollInterval / 2
			c.ReseedInterval = 4 * c.PollInterval
		}), nil))
	}
	for _, q := range queues {
		legs = append(legs, sc.through(tuned(func(c *core.Config) {
			c.Clustering.MaxClusters = 8
			c.NumQueues = int(q)
		}), nil))
	}
	drops := benignDrops(runLegs(opt, r, legs))
	py, qy := drops[:len(periods)], drops[len(periods):]
	r.Add(Series{Name: "Poll period (s) vs benign drops", X: periods, Y: py})
	r.Note("controller period: benign drops %.1f%% at %.2fs vs %.1f%% at %.0fs — slow control loops "+
		"reopen the pulse-wave window the paper closes", py[0], periods[0], py[len(py)-1], periods[len(periods)-1])
	r.Add(Series{Name: "Queues vs benign drops", X: queues, Y: qy})
	r.Note("priority queues: %.1f%% benign drops with 1 queue (=FIFO) vs %.1f%% with 8 — "+
		"finer-grained deprioritization needs queues, not just clusters", qy[0], qy[len(qy)-1])

	benignRow := func(name string) func(*Result, *legOut) {
		return func(r *Result, o *legOut) {
			r.Add(Series{Name: name + "/benign drops", Y: []float64{o.rec.BenignDropPercent()}})
		}
	}
	// hwTurboConfig has exact sets, packet seeding and the 4 hardware
	// features: row 0's run is also rows 2, 4 and 5.
	runLegs(opt, r, []leg{
		// (c) Bloom vs exact nominal sets (the hardware stores admission
		// lists in Bloom filters; the simulator's default is exact).
		sc.through(turbo(hwTurboConfig()), benignRow("Exact sets")),
		sc.through(tuned(func(c *core.Config) { c.Clustering.UseBloom = true }), benignRow("Bloom sets")),
		// (d) slice-init vs packet seeding, single-flow flood.
		again(0, benignRow("Packet-seeded")),
		sc.through(tuned(func(c *core.Config) { c.Clustering.SliceInit = true }), benignRow("Slice-init")),
		// (e) reordering under priority updates (§10): fraction of
		// delivered packets that overtook a same-flow predecessor.
		again(0, func(r *Result, o *legOut) {
			totalDelivered := o.rec.DeliveredBenignPkts() + o.rec.DeliveredMaliciousPkts()
			reorderPct := 0.0
			if totalDelivered > 0 {
				reorderPct = 100 * float64(o.rec.Reordered()) / float64(totalDelivered)
			}
			r.Add(Series{Name: "Reordered delivered packets (%)", Y: []float64{reorderPct}})
			r.Note("reordering: %.3f%% of delivered packets overtook a same-flow predecessor "+
				"(the paper argues priority updates only reorder flows that span an update window)", reorderPct)
		}),
		// (f) feature-set width: hardware's 4 features vs the
		// simulation's 12 on the same workload.
		again(0, benignRow("4 features (hardware)")),
		sc.through(tuned(func(c *core.Config) { c.Clustering.Features = packet.DefaultSimulationFeatures() }), benignRow("12 features (simulation)")),
	})

	// (g) distance normalization: with raw distances, 16-bit port
	// dimensions dominate 8-bit byte dimensions; normalization weighs
	// every feature equally. Scored as clustering purity on the
	// CICDDoS-like day over the full 12-feature set.
	day := defaultDay(opt)
	feats := packet.DefaultSimulationFeatures()
	for _, norm := range []bool{false, true} {
		spec := onlineStrategy("norm", cluster.Config{
			Features: feats, Distance: cluster.Manhattan, Search: cluster.Fast, Normalize: norm,
		})
		name := "Raw distances"
		if norm {
			name = "Normalized distances"
		}
		r.Add(Series{Name: name + "/purity", Y: []float64{meanMetrics(runInferenceDay(day, 10, feats, spec)).purity}})
	}
	return r
}
