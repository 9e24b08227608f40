package experiments

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/jaqen"
)

// Fig8 reproduces the threshold-configuration sensitivity analysis
// (§7.2.3): benign drops as a function of (a) Jaqen's dropping
// threshold and (b) the sketch inter-reset time, compared against FIFO
// and ACC-Turbo.
func Fig8(opt Options) *Result {
	r := &Result{
		ID:     "fig8",
		Title:  "threshold-configuration sensitivity",
		XLabel: "threshold (packets)",
		YLabel: "benign-packet drops (%)",
	}
	sc := singleFlood(opt.Seed, 10*eventsim.Second, sized(opt, 100*eventsim.Second, 40*eventsim.Second))
	// (a) threshold sweep at the controller's fastest periodicity.
	thresholds := sized(opt, []float64{1, 10, 1e2, 1e3, 1e4, 1e5, 1e6, 3e6, 5e6, 7e6, 1e7, 1e8}, []float64{1, 1e3, 1e5, 1e7})
	// (b) inter-reset-time sweep for a low and a high threshold.
	resets := sized(opt, []float64{1, 2, 5, 10, 15, 20}, []float64{1, 10, 20})
	resetThs := []float64{1e4, 1e7}

	legs := []leg{sc.through(fifo, nil), sc.through(turbo(hwTurboConfig()), nil)}
	// A Fig8b point at a 1 s reset is a Fig8a row, and thresholds that
	// scale to one packet count are one row: each reads the first's run.
	rowOf := map[jaqen.Config]int{}
	jaqenAt := func(th, reset float64) leg {
		// At 1:1000 scale the attack generates ~12.5 kpps instead of
		// ~12.5 Mpps: scale the sweep down by the same factor so the
		// crossover sits in the same relative position.
		cfg := jaqen.DefaultConfig()
		cfg.Threshold = uint64(max(th/1000, 1))
		cfg.Window = eventsim.Second
		cfg.ResetPeriod = eventsim.FromSeconds(reset)
		if i, ok := rowOf[cfg]; ok {
			return again(i, nil)
		}
		rowOf[cfg] = len(legs)
		return sc.through(withJaqen(cfg), nil)
	}
	for _, th := range thresholds {
		legs = append(legs, jaqenAt(th, 1))
	}
	for _, th := range resetThs {
		for _, reset := range resets {
			legs = append(legs, jaqenAt(th, reset))
		}
	}
	drops := benignDrops(runLegs(opt, r, legs))
	fifoDrop, turboDrop, ys := drops[0], drops[1], drops[2:2+len(thresholds)]

	r.Note("baselines: FIFO %.1f%%, ACC-Turbo %.1f%% benign drops", fifoDrop, turboDrop)
	r.Add(Series{Name: "Fig8a/Jaqen", X: thresholds, Y: ys})
	r.Add(flatSeries("Fig8a/FIFO", thresholds, fifoDrop))
	r.Add(flatSeries("Fig8a/ACC-Turbo", thresholds, turboDrop))
	r.Note("Fig8a: Jaqen benign drops range %.1f%%-%.1f%% across thresholds (paper: ~10%% to ~75%%+)", minOf(ys), maxOf(ys))
	for i, name := range []string{"Fig8b/Jaqen Th=1e4", "Fig8b/Jaqen Th=1e7"} {
		from := 2 + len(thresholds) + i*len(resets)
		r.Add(Series{Name: name, X: resets, Y: drops[from : from+len(resets)]})
	}
	return r
}

func minOf(ys []float64) float64 {
	if len(ys) == 0 {
		return 0
	}
	m := ys[0]
	for _, v := range ys {
		if v < m {
			m = v
		}
	}
	return m
}
