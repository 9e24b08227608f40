package experiments

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/traffic"
)

// Adversarial is an extension experiment quantifying §9's analysis:
// how ACC-Turbo degrades as an attacker (a) randomizes more packet
// features, (b) spreads the attack across many low-rate aggregates,
// (c) mounts the swapping attack against a high-rate similar benign
// aggregate, and (d) imitates the victim's traffic distribution.
func Adversarial(opt Options) *Result {
	r := &Result{
		ID:     "adversarial",
		Title:  "§9 extension: evading and weaponizing ACC-Turbo",
		XLabel: "randomized features",
		YLabel: "drops (%)",
	}
	const link = 10e6
	end := sized(opt, 40*eventsim.Second, 15*eventsim.Second)
	attackStart := end / 8
	cfg := hwTurboConfig()
	withBackground := func(attack func() traffic.Source) scenario {
		return scenario{func() traffic.Source {
			return traffic.Merge(
				traffic.NewBackground(traffic.BackgroundConfig{Rate: 6e6, Start: 0, End: end, Seed: opt.Seed}),
				attack(),
			)
		}, link, end}
	}

	// (a) packet-level evasion: randomize 0..6 features.
	var legs []leg
	var xs []float64
	for level := 0; level <= 6; level++ {
		legs = append(legs, withBackground(func() traffic.Source {
			return must(traffic.Evasion(traffic.EvasionLevel(level), attackStart, end, 6*link, opt.Seed))
		}).through(turbo(cfg), nil))
		xs = append(xs, float64(level))
	}
	// (b) aggregate-level spread: n well-formed aggregates sharing the
	// flood rate. The paper argues difficulty grows with the cluster
	// count; we sweep n across it.
	clusters := cfg.Clustering.MaxClusters
	var sx []float64
	for _, n := range []int{1, clusters / 2, clusters, 2 * clusters, 4 * clusters} {
		if n < 1 {
			continue
		}
		legs = append(legs, withBackground(func() traffic.Source {
			return must(traffic.SpreadAttack(n, attackStart, end, 6*link, opt.Seed))
		}).through(turbo(cfg), nil))
		sx = append(sx, float64(n))
	}
	legs = append(legs,
		// (c) swapping attack: similar high-rate benign stream + random
		// noise attack.
		scenario{func() traffic.Source {
			return traffic.Merge(traffic.SwappingAttack(0, end, 5e6, 4*link, opt.Seed))
		}, link, end}.through(turbo(cfg), nil),
		// (d) imitation attack: attack drawn from the background's own
		// distribution.
		withBackground(func() traffic.Source {
			return traffic.ImitationAttack(attackStart, end, 6*link, opt.Seed+99)
		}).through(turbo(cfg), nil),
	)
	outs := runLegs(opt, r, legs)
	benignY, attackY := benignDrops(outs[:len(xs)]), make([]float64, len(xs))
	for i, o := range outs[:len(xs)] {
		attackY[i] = o.rec.MaliciousDropPercent()
	}
	r.Add(Series{Name: "Evasion/benign drops", X: xs, Y: benignY})
	r.Add(Series{Name: "Evasion/attack drops", X: xs, Y: attackY})
	r.Note("packet-level evasion: benign drops rise from %.1f%% (plain flood) to %.1f%% (all features random) "+
		"— full randomization defeats similarity-based inference, as §9.1 concedes", benignY[0], benignY[len(benignY)-1])
	sBenign := benignDrops(outs[len(xs) : len(xs)+len(sx)])
	r.Add(Series{Name: "Spread/benign drops vs aggregates", X: sx, Y: sBenign})
	r.Note("aggregate-level spread: benign drops %.1f%% with 1 attack aggregate -> %.1f%% with %d "+
		"(attacking every cluster simultaneously erodes the defense, §9.1)",
		sBenign[0], sBenign[len(sBenign)-1], int(sx[len(sx)-1]))
	swap, imit := outs[len(outs)-2].rec, outs[len(outs)-1].rec
	r.Add(Series{Name: "Swapping/benign drops", Y: []float64{swap.BenignDropPercent()}})
	r.Add(Series{Name: "Swapping/attack drops", Y: []float64{swap.MaliciousDropPercent()}})
	r.Add(Series{Name: "Imitation/benign drops", Y: []float64{imit.BenignDropPercent()}})
	r.Add(Series{Name: "Imitation/attack drops", Y: []float64{imit.MaliciousDropPercent()}})
	r.Note("swapping attack: benign (high-rate, high-similarity stream) drops %.1f%%, attack %.1f%% — "+
		"the defense deprioritizes the most aggregate-looking traffic, which here is the victim (§9.2)",
		swap.BenignDropPercent(), swap.MaliciousDropPercent())
	r.Note("imitation attack: benign drops %.1f%%, attack %.1f%% — indistinguishable distributions defeat "+
		"similarity inference; the paper points to rate-change tests (SPIFFY) as the remedy",
		imit.BenignDropPercent(), imit.MaliciousDropPercent())
	return r
}
