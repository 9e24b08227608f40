package experiments

import (
	"accturbo/internal/acc"
	"accturbo/internal/eventsim"
	"accturbo/internal/jaqen"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// Table3 reproduces the mitigation-efficiency comparison of §7.2.1:
// benign packet drops (%) for {FIFO, Jaqen-dagger (5-tuple),
// Jaqen-double-dagger (srcIP), ACC-Turbo} under {no attack, single
// flow, carpet bombing, source spoofing}, at 1:1000 of the hardware
// rates (background ~7 "G", attack ~99 "G", bottleneck 10 "G").
func Table3(opt Options) *Result {
	r := &Result{
		ID:     "table3",
		Title:  "mitigation efficiency under attack variations (benign drops %)",
		XLabel: "variation",
	}
	const (
		link       = 10e6
		bgRate     = 7e6
		attackRate = 99e6
	)
	end := sized(opt, 100*eventsim.Second, 30*eventsim.Second)
	variations := []traffic.AttackVariation{
		traffic.NoAttack, traffic.SingleFlow, traffic.CarpetBombing, traffic.SourceSpoofing,
	}
	scs := make([]scenario, len(variations))
	xs := make([]float64, len(variations))
	for i, v := range variations {
		scs[i] = scenario{func() traffic.Source {
			return traffic.Variation(v, bgRate, attackRate, end/10, end, opt.Seed)
		}, link, end}
		xs[i] = float64(i)
	}

	jaqenCfg := func(key jaqen.Key) jaqen.Config {
		cfg := jaqen.DefaultConfig()
		cfg.Key = key
		cfg.Window = eventsim.Second
		cfg.ResetPeriod = eventsim.Second
		// Tuned as in the paper: comfortably below the flood's packet
		// rate (~12 kpps at this scale), above any benign flow's.
		cfg.Threshold = 900
		return cfg
	}
	// The paper clusters on the four destination-address bytes. Our
	// synthetic background occupies one /16, so the leading (sliced)
	// feature is the first byte that actually varies — the equivalent of
	// slicing CAIDA traffic on its high bytes.
	turboCfg := hwTurboConfig()
	turboCfg.Clustering.Features = packet.FeatureSet{
		packet.FDstIPByte2, packet.FDstIPByte3, packet.FDstIPByte0, packet.FDstIPByte1,
	}
	turboCfg.Clustering.SliceInit = true

	schemes := []scheme{
		{"FIFO", fifo},
		{"Jaqen+ (5-tuple)", withJaqen(jaqenCfg(jaqen.FiveTuple))},
		{"Jaqen++ (srcIP)", withJaqen(jaqenCfg(jaqen.SrcIP))},
		{"ACC-Turbo", turbo(turboCfg)},
	}
	for i, ys := range benignGrid(opt, schemes, scs) {
		r.Add(Series{Name: schemes[i].name, X: xs, Y: ys})
		r.Note("Table3: %-16s  NoAttack %.2f%%  SingleFlow %.2f%%  Carpet %.2f%%  Spoofed %.2f%%",
			schemes[i].name, ys[0], ys[1], ys[2], ys[3])
	}
	r.Note("variation index: 0=%s 1=%s 2=%s 3=%s",
		traffic.NoAttack, traffic.SingleFlow, traffic.CarpetBombing, traffic.SourceSpoofing)
	r.Note("note: the paper's nonzero Jaqen drops under 'No Attack' (2.5-3.7%%) stem from " +
		"CAIDA heavy hitters crossing its tuned threshold; the synthetic background's flows all stay below it")
	return r
}

// Table4 reports the ACC parameters used throughout the reproduction,
// asserting they match Appendix A.
func Table4(Options) *Result {
	r := &Result{ID: "table4", Title: "ACC parameters (Appendix A)"}
	cfg := acc.DefaultConfig()
	r.Add(Series{Name: "K (s)", Y: []float64{cfg.K.Seconds()}})
	r.Add(Series{Name: "p_high", Y: []float64{cfg.PHigh}})
	r.Add(Series{Name: "p_target", Y: []float64{cfg.PTarget}})
	r.Add(Series{Name: "rate EWMA interval k (s)", Y: []float64{cfg.RateEWMAInterval.Seconds()}})
	r.Add(Series{Name: "max sessions", Y: []float64{float64(cfg.MaxSessions)}})
	r.Add(Series{Name: "release time (s)", Y: []float64{cfg.ReleaseTime.Seconds()}})
	r.Add(Series{Name: "free time (s)", Y: []float64{cfg.FreeTime.Seconds()}})
	r.Add(Series{Name: "cycle time (s)", Y: []float64{cfg.CycleTime.Seconds()}})
	r.Add(Series{Name: "init time (s)", Y: []float64{cfg.InitTime.Seconds()}})
	return r
}
