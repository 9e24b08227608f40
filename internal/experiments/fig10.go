package experiments

import (
	"accturbo/internal/cluster"
	"accturbo/internal/packet"
)

// Fig10 reproduces the clustering-strategy comparison of §8.1: purity
// and benign recall as the number of clusters grows from 2 to 10, for
// every representation/distance/search combination the paper studies,
// plus offline k-means and the hybrid.
func Fig10(opt Options) *Result {
	r := &Result{
		ID:     "fig10",
		Title:  "clustering strategies vs number of clusters",
		XLabel: "clusters",
		YLabel: "quality (%)",
	}
	day := defaultDay(opt)
	feats := packet.DefaultSimulationFeatures()

	online := func(name string, d cluster.Distance, s cluster.Search) strategySpec {
		return onlineStrategy(name, cluster.Config{Features: feats, Distance: d, Search: s})
	}
	specs := []strategySpec{
		online("Anime Exh.", cluster.Anime, cluster.Exhaustive),
		online("Manh. Exh.", cluster.Manhattan, cluster.Exhaustive),
		online("Eucl. Exh.", cluster.Euclidean, cluster.Exhaustive),
		online("Anime Fast", cluster.Anime, cluster.Fast),
		online("Manh. Fast", cluster.Manhattan, cluster.Fast),
		online("Eucl. Fast", cluster.Euclidean, cluster.Fast),
		hybridStrategy(feats),
		{name: "Off. KMeans"},
	}
	ks := sized(opt, []int{2, 4, 6, 8, 10}, []int{2, 6, 10})

	// The specs x ks grid points are independent (each builds its own
	// source and clusterer from the day seed): run them across the
	// worker pool, each writing only its own cell.
	purity := make([][]float64, len(specs))
	recallB := make([][]float64, len(specs))
	for i := range specs {
		purity[i] = make([]float64, len(ks))
		recallB[i] = make([]float64, len(ks))
	}
	RunParallel(opt, len(specs)*len(ks), func(i int) {
		si, ki := i/len(ks), i%len(ks)
		m := meanMetrics(runInferenceDay(day, ks[ki], feats, specs[si]))
		purity[si][ki], recallB[si][ki] = m.purity, m.recallB
	})

	xs := make([]float64, len(ks))
	for i, k := range ks {
		xs[i] = float64(k)
	}
	byName := map[string][]float64{}
	for si, spec := range specs {
		byName[spec.name] = purity[si]
		r.Add(Series{Name: "Purity/" + spec.name, X: xs, Y: purity[si]})
		r.Add(Series{Name: "RecallB/" + spec.name, X: xs, Y: recallB[si]})
	}

	last := len(ks) - 1
	kMin, kMax := ks[0], ks[last]
	at := func(name string) float64 { return byName[name][last] }
	r.Note("Manh. Fast: purity %.1f%% at %d clusters -> %.1f%% at %d clusters (paper: more clusters help)",
		byName["Manh. Fast"][0], kMin, at("Manh. Fast"), kMax)
	r.Note("Exhaustive vs fast at %d clusters: Anime %.1f%% vs %.1f%% (paper: 98.09%% vs 93.24%%), "+
		"Eucl. %.1f%% vs %.1f%% (paper: center-based suffers least when downgraded)",
		kMax, at("Anime Exh."), at("Anime Fast"), at("Eucl. Exh."), at("Eucl. Fast"))
	r.Note("Manh. Exh. %.1f%% vs Manh. Fast %.1f%%: deviation from the paper — the linear cost lets "+
		"heavily-overlapping mixed clusters merge cheaply on this synthetic day",
		at("Manh. Exh."), at("Manh. Fast"))
	r.Note("Offline k-means at %d clusters: %.1f%% vs Eucl. Fast %.1f%% (paper: online close to offline); "+
		"hybrid %.1f%% (paper: improvement not significant)",
		kMax, at("Off. KMeans"), at("Eucl. Fast"), at("Eucl. Fast In."))
	return r
}
