package experiments

import (
	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// Inference-only evaluation: the clustering experiments of §8.1 feed
// the CICDDoS-like day straight into a clusterer and score purity and
// recall per attack window (the paper computes metrics every minute
// and averages over mixed windows; our compressed day makes each
// attack window one evaluation window). A fresh clusterer per window
// models the controller-driven re-initialization between attacks.

// observerFunc assigns one packet to a cluster id.
type observerFunc func(p *packet.Packet) int

// strategySpec is one clustering strategy: mkOnline builds a fresh
// per-window streaming observer of k clusters, or, when nil, each
// window's packets are clustered as a batch with k-means (unlimited
// passes).
type strategySpec struct {
	name     string
	mkOnline func(k int) observerFunc
}

// dayParams scale the CICDDoS-like trace.
type dayParams struct {
	vecLen, vecGap eventsim.Time
	seed           int64
}

func defaultDay(opt Options) dayParams {
	return dayParams{
		vecLen: sized(opt, 4*eventsim.Second, 2*eventsim.Second),
		vecGap: sized(opt, 2*eventsim.Second, eventsim.Second),
		seed:   opt.Seed,
	}
}

// vectorMetrics holds one attack window's clustering quality.
type vectorMetrics struct {
	vector  traffic.Vector
	purity  float64
	recallB float64
	recallM float64
}

// meanMetrics averages a day's per-window metrics.
func meanMetrics(ms []vectorMetrics) (m vectorMetrics) {
	for _, v := range ms {
		m.purity += v.purity
		m.recallB += v.recallB
		m.recallM += v.recallM
	}
	n := float64(len(ms))
	m.purity, m.recallB, m.recallM = m.purity/n, m.recallB/n, m.recallM/n
	return m
}

// runInferenceDay replays the CICDDoS day through per-window observers
// and scores each attack window.
func runInferenceDay(p dayParams, k int, feats packet.FeatureSet, spec strategySpec) []vectorMetrics {
	src, windows := traffic.CICDDoSDay(2e6, 8e6, p.vecLen, p.vecGap, p.seed)

	type windowState struct {
		eval  *cluster.Eval
		obs   observerFunc
		batch []*packet.Packet
	}
	states := make([]windowState, len(windows))
	for i := range states {
		states[i].eval = cluster.NewEval()
		if spec.mkOnline != nil {
			states[i].obs = spec.mkOnline(k)
		}
	}

	for {
		tp, ok := src.Next()
		if !ok {
			break
		}
		// Locate the enclosing attack window (if any).
		wi := -1
		for i, w := range windows {
			if tp.At >= w.Start && tp.At < w.End {
				wi = i
				break
			}
		}
		if wi < 0 {
			continue // gap traffic is not scored
		}
		st := &states[wi]
		if spec.mkOnline == nil {
			st.batch = append(st.batch, tp.Pkt)
			continue
		}
		st.eval.Observe(st.obs(tp.Pkt), tp.Pkt.Label)
	}

	out := make([]vectorMetrics, len(windows))
	for i, w := range windows {
		st := &states[i]
		if spec.mkOnline == nil && len(st.batch) > 0 {
			km := cluster.NewKMeans(k, feats, p.seed+int64(i))
			_, assign := km.Fit(st.batch)
			for j, pk := range st.batch {
				st.eval.Observe(assign[j], pk.Label)
			}
		}
		out[i] = vectorMetrics{
			vector:  w.Vector,
			purity:  st.eval.Purity() * 100,
			recallB: st.eval.RecallBenign() * 100,
			recallM: st.eval.RecallMalicious() * 100,
		}
	}
	return out
}

// onlineStrategy builds a strategySpec for an Online configuration,
// with MaxClusters set per run.
func onlineStrategy(name string, cfg cluster.Config) strategySpec {
	return strategySpec{name, func(k int) observerFunc {
		c := cfg
		c.MaxClusters = k
		o := cluster.NewOnline(c)
		return func(p *packet.Packet) int { return int(o.Observe(p).UID) }
	}}
}

// manhFast is the deployable configuration: Manhattan distance, fast
// search.
func manhFast(name string, feats packet.FeatureSet) strategySpec {
	return onlineStrategy(name, cluster.Config{Features: feats, Distance: cluster.Manhattan, Search: cluster.Fast})
}

// hybridStrategy is "Eucl. Fast In.": online Euclidean with periodic
// offline re-seeding.
func hybridStrategy(feats packet.FeatureSet) strategySpec {
	return strategySpec{"Eucl. Fast In.", func(k int) observerFunc {
		h := cluster.NewHybrid(k, feats, 2000, 1)
		return func(p *packet.Packet) int { return int(h.Observe(p).UID) }
	}}
}

// Fig9 reproduces the per-attack-vector and per-feature clustering
// quality of §8.1, using the deployable configuration (Manhattan,
// fast) with 10 clusters.
func Fig9(opt Options) *Result {
	r := &Result{
		ID:     "fig9",
		Title:  "clustering performance by attack vector and feature",
		XLabel: "index",
		YLabel: "quality (%)",
	}
	day := defaultDay(opt)
	feats := packet.DefaultSimulationFeatures()

	// (a) per-vector purity with the full feature set.
	metrics := runInferenceDay(day, 10, feats, manhFast("Manh. Fast", feats))
	var xs, ys []float64
	var reflSum, explSum float64
	var reflN, explN int
	for i, m := range metrics {
		xs = append(xs, float64(i))
		ys = append(ys, m.purity)
		if m.vector.Class == traffic.Reflection {
			reflSum += m.purity
			reflN++
		} else {
			explSum += m.purity
			explN++
		}
		r.Note("Fig9a: %-8s (%s): purity %.1f%% recallB %.1f%% recallM %.1f%%",
			m.vector.Name, m.vector.Class, m.purity, m.recallB, m.recallM)
	}
	r.Add(Series{Name: "Fig9a/Purity by vector", X: xs, Y: ys})
	if reflN > 0 && explN > 0 {
		r.Note("Fig9a: reflection avg %.1f%% vs exploitation avg %.1f%% (paper: reflection ~5.4%% better)",
			reflSum/float64(reflN), explSum/float64(explN))
	}

	// (b) clustering on individual features.
	singles := []packet.Feature{
		packet.FDstIP, packet.FSrcIP, packet.FSrcPort, packet.FDstPort,
		packet.FTTL, packet.FLength, packet.FFragOffset, packet.FID, packet.FProtocol,
	}
	fx := make([]float64, len(singles))
	fp := make([]float64, len(singles))
	frb := make([]float64, len(singles))
	frm := make([]float64, len(singles))
	// Single-feature runs are independent; fan them out, then emit
	// notes in feature order so output matches the sequential run.
	RunParallel(opt, len(singles), func(i int) {
		fs := packet.FeatureSet{singles[i]}
		m := meanMetrics(runInferenceDay(day, 10, fs, manhFast("single", fs)))
		fx[i], fp[i], frb[i], frm[i] = float64(i), m.purity, m.recallB, m.recallM
	})
	for i, f := range singles {
		r.Note("Fig9b: feature %-12s purity %.1f%% recallB %.1f%% recallM %.1f%%",
			f, fp[i], frb[i], frm[i])
	}
	r.Add(Series{Name: "Fig9b/Purity by feature", X: fx, Y: fp})
	r.Add(Series{Name: "Fig9b/Recall benign", X: fx, Y: frb})
	r.Add(Series{Name: "Fig9b/Recall malicious", X: fx, Y: frm})
	return r
}
