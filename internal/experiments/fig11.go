package experiments

import (
	"fmt"

	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// fig11Features is "the 10 most representative features for the
// trace" (§8.2): the address bytes plus TTL and length. Ports are
// excluded — reflection attacks randomize the victim-side port, so the
// port dimensions only blur aggregate similarity.
func fig11Features() packet.FeatureSet {
	return packet.FeatureSet{
		packet.FSrcIPByte0, packet.FSrcIPByte1, packet.FSrcIPByte2, packet.FSrcIPByte3,
		packet.FDstIPByte0, packet.FDstIPByte1, packet.FDstIPByte2, packet.FDstIPByte3,
		packet.FTTL, packet.FLength,
	}
}

// turboVariant builds an ACC-Turbo config for a Fig. 11b scheduler.
func turboVariant(dist cluster.Distance, search cluster.Search, ranking core.Ranking) core.Config {
	cfg := core.DefaultConfig()
	cfg.Clustering = cluster.Config{
		MaxClusters: 10,
		Features:    fig11Features(),
		Distance:    dist,
		Search:      search,
		SliceInit:   dist != cluster.Euclidean && search != cluster.Exhaustive,
	}
	cfg.Ranking = ranking
	cfg.ReseedInterval = eventsim.Second
	return cfg
}

// Fig11 reproduces the scheduling evaluation of §8.2: (a) the ranking-
// algorithm score on the two hardest reflection vectors, and (b) benign
// drops across bottleneck capacities for FIFO, the ideal PIFO, and the
// ACC-Turbo variants.
func Fig11(opt Options) *Result {
	r := &Result{
		ID:     "fig11",
		Title:  "scheduling rankings and bottleneck sweep",
		XLabel: "bottleneck (Mbps)",
		YLabel: "benign packets dropped (%)",
	}

	// (a) ranking score under MSSQL and SSDP floods.
	rankings := []core.Ranking{core.ByPacketRate, core.ByThroughput, core.ByPacketRateOverSize, core.ByThroughputOverSize}
	end := sized(opt, 30*eventsim.Second, 10*eventsim.Second)
	var legs []leg
	for _, vec := range []string{"MSSQL", "SSDP"} {
		sc := scenario{func() traffic.Source {
			return traffic.Merge(
				traffic.NewBackground(traffic.BackgroundConfig{Rate: 6e6, Start: 0, End: end, Seed: opt.Seed}),
				traffic.VectorsMust(vec).Flood(eventsim.Second, end, 40e6, packet.V4Addr{198, 18, 99, 1}, 0, opt.Seed+7),
			)
		}, 10e6, end}
		for _, rk := range rankings {
			// Packet-seeded clustering (no slice tiling) so cluster
			// sizes genuinely reflect aggregate similarity: this is
			// the regime where the ranking choice matters (Fig. 11a).
			cfg := turboVariant(cluster.Manhattan, cluster.Fast, rk)
			cfg.Clustering.SliceInit = false
			legs = append(legs, sc.through(turbo(cfg), func(r *Result, o *legOut) {
				score := o.score()
				r.Add(Series{Name: fmt.Sprintf("Fig11a/%s %s score", vec, rk), Y: []float64{score}})
				r.Note("Fig11a: %s with %s ranking: score %.0f%%", vec, rk, score)
			}))
		}
	}
	runLegs(opt, r, legs)

	// (b) bottleneck sweep over the §8.2 workload: the CICDDoS-like day
	// at rates that congest the swept bottlenecks (paper: 1-50 Mbps).
	day := defaultDay(opt)
	total := eventsim.Time(9)*(day.vecLen+day.vecGap) + day.vecGap
	capacities := sized(opt, []float64{50e6, 20e6, 10e6, 5e6, 1e6}, []float64{20e6, 5e6})
	scs := make([]scenario, len(capacities))
	xs := make([]float64, len(capacities))
	for i, c := range capacities {
		scs[i] = scenario{func() traffic.Source {
			src, _ := traffic.CICDDoSDay(12e6, 60e6, day.vecLen, day.vecGap, day.seed)
			return src
		}, c, total}
		xs[i] = c / 1e6
	}
	schemes := []scheme{
		{"FIFO", fifo},
		{"PIFO Ideal", pifoIdeal},
		{"An. Fast Th.", turbo(turboVariant(cluster.Anime, cluster.Fast, core.ByThroughput))},
		{"Manh. Fast Th.", turbo(turboVariant(cluster.Manhattan, cluster.Fast, core.ByThroughput))},
		{"Manh. F. Th./S.", turbo(turboVariant(cluster.Manhattan, cluster.Fast, core.ByThroughputOverSize))},
		{"Manh. Exh. Th.", turbo(turboVariant(cluster.Manhattan, cluster.Exhaustive, core.ByThroughput))},
	}
	drops := benignGrid(opt, schemes, scs)
	for i, s := range schemes {
		r.Add(Series{Name: "Fig11b/" + s.name, X: xs, Y: drops[i]})
	}
	r.Note("Fig11b at %.0f Mbps: FIFO %.1f%%, Manh. Fast Th. %.1f%%, PIFO Ideal %.1f%% "+
		"(paper: ACC-Turbo saves up to 29%% more benign traffic than FIFO, ~5%% from ideal)",
		xs[0], drops[0][0], drops[3][0], drops[1][0])
	return r
}
