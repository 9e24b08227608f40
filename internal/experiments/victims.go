package experiments

import (
	"fmt"
	"math/rand"

	"accturbo/internal/victim"
)

// Victims drives the heavy-keeper victim detector with a pulse-wave
// attack that rotates across three destination aggregates — the attack
// shape ACC-Turbo defends against, seen from the victim-identification
// side. Each simulated window carries benign background spread over
// thousands of destinations plus one pulse focused on the rotation's
// current target; the detector must list the pulsed destination while
// it is under fire, hold it briefly through the hysteresis band as the
// pulse moves on, and never list a benign destination.
func Victims(opts Options) *Result {
	r := &Result{
		ID:     "victims",
		Title:  "Extension: heavy-keeper victim identification under a pulse wave",
		XLabel: "window",
		YLabel: "share of window bytes",
	}

	windows := sized(opts, 18, 12)
	perWindow := sized(opts, 60_000, 12_000) // observations per window

	targets := []uint64{0xA1, 0xB2, 0xC3} // the rotating victim dsts
	cfg := victim.DefaultConfig()
	det := must(victim.New(cfg))
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x71c))

	xs := make([]float64, windows)
	shares := make([][]float64, len(targets))
	for i := range shares {
		shares[i] = make([]float64, windows)
	}
	listed := make([]float64, windows)
	falsePositives := 0
	pulseDetected := 0
	pulseWindows := 0

	for w := 0; w < windows; w++ {
		xs[w] = float64(w)
		// Benign background: 70% of observations, spread wide.
		for i := 0; i < perWindow*7/10; i++ {
			det.Observe(0x10000+rng.Uint64()%4096, 200+rng.Uint64()%1200)
		}
		// Pulse: the rotation's current target soaks the rest. Windows
		// 0-1 are pre-attack baseline.
		attacking := w >= 2
		target := targets[(w/2)%len(targets)]
		if attacking {
			for i := 0; i < perWindow*3/10; i++ {
				det.Observe(target, 1200)
			}
			pulseWindows++
		}
		vs := det.Advance()
		listed[w] = float64(len(vs))
		hitTarget := false
		for _, v := range vs {
			benign := true
			for ti, tk := range targets {
				if v.Key == tk {
					benign = false
					shares[ti][w] = v.Share
					if tk == target && attacking {
						hitTarget = true
					}
				}
			}
			if benign {
				falsePositives++
			}
		}
		if attacking && hitTarget {
			pulseDetected++
		}
	}

	for ti := range targets {
		r.Add(Series{Name: fmt.Sprintf("dst %c (share)", 'A'+ti), X: xs, Y: shares[ti]})
	}
	r.Add(Series{Name: "victims listed", X: xs, Y: listed})

	r.Note("pulse windows: %d, target listed in %d (%.0f%%)",
		pulseWindows, pulseDetected, 100*float64(pulseDetected)/float64(pulseWindows))
	r.Note("benign destinations ever listed: %d", falsePositives)
	r.Note("hysteresis: activate at %.0f%% share, release at %.0f%%",
		100*cfg.ActivateShare, 100*cfg.ReleaseShare)
	return r
}
