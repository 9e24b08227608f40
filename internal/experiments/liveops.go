package experiments

import (
	"bytes"
	"fmt"
	"slices"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// liveOpsCut is when both operations land: mid-pulse-2 of the fig6
// pulse wave (pulses at [10,20), [30,40), ...), the worst moment to
// touch a running defense.
const liveOpsCut = 35 * eventsim.Second

// skipUntil replays only the tail of a deterministic source: packets
// before cut are consumed (and recycled) instead of emitted, and the
// survivors are re-timed to start at zero — the traffic a restarted
// process sees when it rejoins a live attack mid-pulse. cut must be a
// multiple of the control loop's intervals so poll/reseed phase
// against the traffic is preserved across the restart.
type skipUntil struct {
	src  traffic.Source
	cut  eventsim.Time
	pool *packet.Pool
}

func (s *skipUntil) Next() (traffic.TimedPacket, bool) {
	for {
		tp, ok := s.src.Next()
		if !ok {
			return traffic.TimedPacket{}, false
		}
		if tp.At < s.cut {
			if s.pool != nil {
				s.pool.Put(tp.Pkt)
			}
			continue
		}
		tp.At -= s.cut
		return tp, true
	}
}

// SetPool implements traffic.Pooled: skipped packets go straight back
// to the pool, and the inner generators recycle through it as usual.
func (s *skipUntil) SetPool(pool *packet.Pool) {
	s.pool = pool
	traffic.AttachPool(s.src, pool)
}

// LiveOps exercises both live-operation paths mid-pulse-wave and
// reports that neither costs benign traffic:
//
//   - Reconfigure: at t=35s (inside pulse 2) the runtime config is
//     hot-patched — ranking flips to packet rate and the poll interval
//     halves to 125 ms — on the running pipeline. Benign drops must
//     stay at the clean run's level: the swap reschedules tickers, it
//     never stalls the data plane.
//   - Kill/restore: a second run is killed at t=35s, its full state
//     serialized, and a fresh process restores the snapshot and takes
//     over the remaining traffic. The restored process's first deployed
//     decision is the pre-kill decision itself (restore re-deploys it,
//     so forwarding resumes under the learned queue map from packet
//     one), its first recomputed deployment keeps the attack aggregate
//     demoted to the same queue (no re-convergence window — the
//     background clusters may legitimately re-rank, since the new
//     ranking window covers different traffic than the pre-kill one),
//     and combined benign drops across the handover stay at the clean
//     run's level.
//
// Same seed, same output, byte for byte — the golden manifest pins them
// at two seeds.
func LiveOps(opt Options) *Result {
	r := &Result{
		ID:     "liveops",
		Title:  "hot reconfigure and snapshot/restore mid-pulse-wave",
		XLabel: "time (s)",
		YLabel: "throughput (Mbps)",
	}
	sc := hwPulse(opt)
	end, cut := sc.end, liveOpsCut

	var genBefore, genAfter uint64
	var reconfErr error
	reconfigure := func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, o *legOut) *netsim.Port {
		port := turbo(hwTurboConfig())(eng, rec, link, o)
		genBefore = o.turbo.ControlPlane().ConfigGeneration()
		eng.At(cut, func(eventsim.Time) {
			byRate := core.ByPacketRate
			poll := 125 * eventsim.Millisecond
			genAfter, reconfErr = o.turbo.Reconfigure(core.RuntimePatch{Ranking: &byRate, PollInterval: &poll})
		})
		return port
	}
	outs := runLegs(opt, r, []leg{
		// Reference: the untouched defense over the identical traffic.
		sc.through(turbo(hwTurboConfig()), nil),
		// Leg 1: hot reconfigure mid-pulse.
		sc.through(reconfigure, nil),
		// Leg 2a: the same scenario, killed mid-pulse.
		scenario{sc.src, sc.link, cut}.through(turbo(hwTurboConfig()), nil),
	})
	clean, rec1, turbo1, recA := outs[0], outs[1].rec, outs[1].turbo, outs[2].rec
	preDec := outs[2].turbo.ControlPlane().LastDecision()
	var blob bytes.Buffer
	saveErr := outs[2].turbo.SaveState(&blob)

	// Leg 2b: a fresh process restores the snapshot and takes over the
	// remaining traffic (the skipUntil tail of the same deterministic
	// source), with its clock restarted at zero — a real restart.
	var resave bytes.Buffer
	var restoreErr, resaveErr error
	var restoredDec, firstDec *core.Decision
	restore := func(eng *eventsim.Engine, rec *netsim.Recorder, link float64, o *legOut) *netsim.Port {
		port := turbo(hwTurboConfig())(eng, rec, link, o)
		restoreErr = o.turbo.RestoreState(bytes.NewReader(blob.Bytes()))
		resaveErr = o.turbo.SaveState(&resave)
		cp := o.turbo.ControlPlane()
		restoredDec = cp.LastDecision()
		cp.OnDeploy = func(dec *core.Decision) {
			if firstDec == nil {
				firstDec = dec
			}
		}
		return port
	}
	tail := scenario{func() traffic.Source { return &skipUntil{src: sc.src(), cut: cut} }, sc.link, end - cut}
	recB := runLegs(opt, r, []leg{tail.through(restore, nil)})[0].rec

	r.Add(throughputSeries(clean.rec, packet.Benign, "clean/Output Benign"))
	r.Add(throughputSeries(rec1, packet.Benign, "reconfigured/Output Benign"))
	r.Add(throughputSeries(rec1, packet.Malicious, "reconfigured/Output Attack"))
	r.Add(stitchedSeries(recA, recB, cut, "kill+restore/Output Benign"))

	if reconfErr != nil || saveErr != nil || restoreErr != nil || resaveErr != nil {
		r.Note("ERROR: reconfigure=%v save=%v restore=%v resave=%v", reconfErr, saveErr, restoreErr, resaveErr)
		return r
	}

	rt := turbo1.Runtime()
	r.Note("reconfigure: config generation %d -> %d at t=%ds (ranking %s, poll %v)",
		genBefore, genAfter, int(cut/eventsim.Second), rt.Ranking, rt.PollInterval.Duration())
	r.Note("reconfigure: benign drops %.2f%% vs clean %.2f%% (delta %+.2f pts)",
		rec1.BenignDropPercent(), clean.rec.BenignDropPercent(),
		rec1.BenignDropPercent()-clean.rec.BenignDropPercent())
	cutSec := int(cut / eventsim.Second)
	r.Note("reconfigure: benign drops before/during/after swap: %s vs clean %s",
		phaseDrops(rec1, cutSec), phaseDrops(clean.rec, cutSec))
	lat := turbo1.ControlPlane().DeployLatency()
	r.Note("reconfigure: deploy latency across the swap: %d deployments, mean %.1f ms, max %.1f ms",
		lat.Count, lat.Mean()/1e6, float64(lat.Max)/1e6)

	// The attack aggregate is preDec's top-ranked cluster; its demotion
	// must survive the restart even though the background clusters may
	// re-rank over the new window's traffic.
	resumed := preDec != nil && restoredDec != nil && slices.Equal(restoredDec.QueueOf, preDec.QueueOf)
	demoted := false
	floodQueue := -1
	if preDec != nil && firstDec != nil && len(preDec.Rank) > 0 {
		flood := 0
		for i, v := range preDec.Rank {
			if v > preDec.Rank[flood] {
				flood = i
			}
		}
		if flood < len(preDec.QueueOf) && flood < len(firstDec.QueueOf) {
			floodQueue = preDec.QueueOf[flood]
			demoted = firstDec.QueueOf[flood] == floodQueue
		}
	}
	r.Note("restore: snapshot %d bytes at t=%ds, re-save after restore byte-identical: %v",
		blob.Len(), cutSec, bytes.Equal(blob.Bytes(), resave.Bytes()))
	r.Note("restore: first deployed decision is the pre-kill decision: %v", resumed)
	r.Note("restore: first recomputed deployment keeps the attack in queue %d, no re-convergence window: %v",
		floodQueue, demoted)
	combinedArrived := recA.ArrivedBenign() + recB.ArrivedBenign()
	combinedDropped := recA.DroppedBenign() + recB.DroppedBenign()
	combinedPct := 0.0
	if combinedArrived > 0 {
		combinedPct = 100 * float64(combinedDropped) / float64(combinedArrived)
	}
	r.Note("restore: combined benign drops across kill/restore %.2f%% (clean %.2f%%); in-flight queue contents at kill are forfeited, not counted",
		combinedPct, clean.rec.BenignDropPercent())
	return r
}

// phaseDrops formats per-phase benign drop percentages around the
// operation at cut: before [0,cut), during the rest of the active pulse
// [cut,cut+5), and after [cut+5,end) — fig6 pulses occupy [30,40).
func phaseDrops(rec *netsim.Recorder, cutSec int) string {
	arrived := rec.ArrivedBits(packet.Benign)
	delivered := rec.DeliveredBits(packet.Benign)
	pct := func(from, to int) float64 {
		var a, d float64
		for i := from; i < to && i < len(arrived) && i < len(delivered); i++ {
			a += arrived[i]
			d += delivered[i]
		}
		if a == 0 {
			return 0
		}
		return 100 * (a - d) / a
	}
	return fmt.Sprintf("%.2f%%/%.2f%%/%.2f%%",
		pct(0, cutSec), pct(cutSec, cutSec+5), pct(cutSec+5, len(arrived)))
}

// stitchedSeries joins the pre-kill recorder's benign throughput with
// the restored run's (whose bins start at zero) on the original time
// axis.
func stitchedSeries(pre, post *netsim.Recorder, cut eventsim.Time, name string) Series {
	a := pre.DeliveredBits(packet.Benign)
	if len(a) > int(cut/eventsim.Second) {
		a = a[:int(cut/eventsim.Second)]
	}
	b := post.DeliveredBits(packet.Benign)
	x := make([]float64, 0, len(a)+len(b))
	y := make([]float64, 0, len(a)+len(b))
	for i, v := range a {
		x = append(x, float64(i))
		y = append(y, v/1e6)
	}
	for i, v := range b {
		x = append(x, float64(int(cut/eventsim.Second)+i))
		y = append(y, v/1e6)
	}
	return Series{Name: name, X: x, Y: y}
}
