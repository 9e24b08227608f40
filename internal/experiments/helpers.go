package experiments

import (
	"accturbo/internal/acc"
	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/jaqen"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// bufferFor sizes port buffers like the rest of the repo: ~100 ms of
// line rate.
func bufferFor(linkRate float64) int {
	b := int(linkRate / 8 / 10)
	if b < 10_000 {
		b = 10_000
	}
	return b
}

// recycle closes the packet lifecycle of a single-bottleneck run: the
// source tree stamps pooled packets, the terminal port releases every
// packet it delivers or drops. Multi-hop topologies (Chain/FanIn in the
// pushback experiment) must not use this — their delivered packets are
// re-injected downstream.
func recycle(src traffic.Source, port *netsim.Port) {
	pool := packet.NewPool()
	traffic.AttachPool(src, pool)
	port.SetPool(pool)
}

// replay is the single-bottleneck run every scheme shares: a fresh engine
// and recorder, the port that build makes on them (with whatever defense
// it attaches), and src replayed into it, recycled, until `until`.
func replay(src traffic.Source, until eventsim.Time, build func(*eventsim.Engine, *netsim.Recorder) *netsim.Port) *netsim.Recorder {
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	port := build(eng, rec)
	recycle(src, port)
	netsim.Replay(eng, src, port)
	eng.RunUntil(until)
	return rec
}

// runQdisc replays src through a bottleneck scheduled by q.
func runQdisc(src traffic.Source, linkRate float64, until eventsim.Time, q queue.Qdisc) *netsim.Recorder {
	return replay(src, until, func(eng *eventsim.Engine, rec *netsim.Recorder) *netsim.Port {
		return netsim.NewPort(eng, q, linkRate, rec)
	})
}

// runFIFO replays src through a plain FIFO bottleneck.
func runFIFO(src traffic.Source, linkRate float64, until eventsim.Time) *netsim.Recorder {
	return runQdisc(src, linkRate, until, queue.NewFIFO(bufferFor(linkRate)))
}

// runACC replays src through RED + the classic ACC agent.
func runACC(src traffic.Source, linkRate float64, until eventsim.Time, cfg acc.Config) (rec *netsim.Recorder, agent *acc.ACC) {
	rec = replay(src, until, func(eng *eventsim.Engine, rec *netsim.Recorder) *netsim.Port {
		red := queue.NewRED(queue.DefaultREDConfig(bufferFor(linkRate), linkRate/8))
		port := netsim.NewPort(eng, red, linkRate, rec)
		agent = acc.Attach(eng, port, red, cfg)
		return port
	})
	return rec, agent
}

// turboRun bundles the outputs of an instrumented ACC-Turbo run.
type turboRun struct {
	rec   *netsim.Recorder
	turbo *core.Turbo
	// score accounting (Fig. 11a): per-bin sums of assigned queue
	// index and packet counts, per class.
	queueSum [2][]float64
	pktCount [2][]float64
}

// runTurbo replays src through an ACC-Turbo port, instrumenting the
// per-packet queue assignments for the scheduling score.
func runTurbo(src traffic.Source, linkRate float64, until eventsim.Time, cfg core.Config) *turboRun {
	run := &turboRun{}
	run.rec = replay(src, until, func(eng *eventsim.Engine, rec *netsim.Recorder) *netsim.Port {
		port, turbo := core.Attach(eng, linkRate, rec, cfg)
		run.turbo = turbo
		turbo.OnAssign = func(now eventsim.Time, p *packet.Packet, a cluster.Assignment) {
			q := float64(turbo.QueueOf(a.Cluster))
			bin := int(now / eventsim.Second)
			l := 0
			if p.Label == packet.Malicious {
				l = 1
			}
			for len(run.queueSum[l]) <= bin {
				run.queueSum[l] = append(run.queueSum[l], 0)
				run.pktCount[l] = append(run.pktCount[l], 0)
			}
			run.queueSum[l][bin] += q
			run.pktCount[l][bin]++
		}
		return port
	})
	return run
}

// score is the Fig. 11a metric: the percentage of one-second intervals
// (containing both classes) in which benign traffic received a better
// (lower-index) average queue than malicious traffic.
func (tr *turboRun) score() float64 {
	n := len(tr.queueSum[0])
	if len(tr.queueSum[1]) < n {
		n = len(tr.queueSum[1])
	}
	mixed, won := 0, 0
	for i := 0; i < n; i++ {
		if tr.pktCount[0][i] == 0 || tr.pktCount[1][i] == 0 {
			continue
		}
		mixed++
		avgB := tr.queueSum[0][i] / tr.pktCount[0][i]
		avgM := tr.queueSum[1][i] / tr.pktCount[1][i]
		if avgB < avgM {
			won++
		}
	}
	if mixed == 0 {
		return 0
	}
	return 100 * float64(won) / float64(mixed)
}

// runJaqen replays src through a FIFO port protected by Jaqen.
func runJaqen(src traffic.Source, linkRate float64, until eventsim.Time, cfg jaqen.Config) (rec *netsim.Recorder, j *jaqen.Jaqen) {
	rec = replay(src, until, func(eng *eventsim.Engine, rec *netsim.Recorder) *netsim.Port {
		port := netsim.NewPort(eng, queue.NewFIFO(bufferFor(linkRate)), linkRate, rec)
		j = jaqen.Attach(eng, port, cfg)
		return port
	})
	return rec, j
}

// groundTruthRank ranks benign packets ahead of malicious ones: the
// labels a real scheduler never sees.
func groundTruthRank(_ eventsim.Time, p *packet.Packet) int64 {
	if p.Label == packet.Malicious {
		return 1
	}
	return 0
}

// runPIFOIdeal replays src through the ground-truth PIFO (the paper's
// "PIFO Ideal").
func runPIFOIdeal(src traffic.Source, linkRate float64, until eventsim.Time) *netsim.Recorder {
	return runQdisc(src, linkRate, until, queue.NewPIFO(bufferFor(linkRate), groundTruthRank))
}

// shareSeries converts a per-flow delivered series into fraction of
// link bandwidth, sampled at whole seconds.
func shareSeries(rec *netsim.Recorder, flowID uint32, linkRate float64) Series {
	bits := rec.FlowDeliveredBits(flowID)
	x := make([]float64, len(bits))
	y := make([]float64, len(bits))
	for i, v := range bits {
		x[i] = float64(i)
		y[i] = v / linkRate
	}
	return Series{X: x, Y: y}
}

// totalShareSeries is the "All" line: total delivered / link rate.
func totalShareSeries(rec *netsim.Recorder, linkRate float64) Series {
	b := rec.DeliveredBits(packet.Benign)
	m := rec.DeliveredBits(packet.Malicious)
	x := make([]float64, len(b))
	y := make([]float64, len(b))
	for i := range b {
		x[i] = float64(i)
		y[i] = (b[i] + m[i]) / linkRate
	}
	return Series{Name: "All", X: x, Y: y}
}

// dropRateSeries wraps Recorder.DropRate with an x-axis.
func dropRateSeries(rec *netsim.Recorder, name string) Series {
	dr := rec.DropRate()
	x := make([]float64, len(dr))
	for i := range dr {
		x[i] = float64(i)
	}
	return Series{Name: name, X: x, Y: dr}
}

// throughputSeries returns delivered bits/s for a class, in Mbps.
func throughputSeries(rec *netsim.Recorder, label packet.Label, name string) Series {
	bits := rec.DeliveredBits(label)
	x := make([]float64, len(bits))
	y := make([]float64, len(bits))
	for i, v := range bits {
		x[i] = float64(i)
		y[i] = v / 1e6
	}
	return Series{Name: name, X: x, Y: y}
}
