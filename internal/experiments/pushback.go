package experiments

import (
	"accturbo/internal/acc"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// PushbackExperiment is an extension reproducing the *original* ACC
// paper's pushback result (the mechanism §2's footnote scopes out):
// when the attack also congests its upstream link, local rate-limiting
// at the bottleneck cannot protect benign traffic sharing that
// upstream — pushing the limit to the upstream ingress can.
//
// Topology: two 20 Mbps upstream links into a 10 Mbps core bottleneck;
// 4 Mbps of background enters through each upstream; a 60 Mbps flood
// enters through upstream 1 only.
func PushbackExperiment(opt Options) *Result {
	r := &Result{
		ID:     "pushback",
		Title:  "extension: original-ACC pushback vs local ACC",
		XLabel: "scheme",
		YLabel: "end-to-end benign drops (%)",
	}
	end := sized(opt, 60*eventsim.Second, 25*eventsim.Second)

	const (
		coreRate = 10e6
		upRate   = 20e6
	)
	mkBenign := func(seed int64) traffic.Source {
		return traffic.NewBackground(traffic.BackgroundConfig{
			Rate: 4e6, Start: 0, End: end, Seed: opt.Seed + seed,
		})
	}
	attackSpec := traffic.FlowSpec{
		SrcIP: packet.V4Addr{9, 9, 9, 9}, DstIP: packet.V4Addr{10, 250, 9, 0},
		Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80,
		TTL: 54, Size: 500, Label: packet.Malicious, Vector: "flood",
		FlowID: traffic.AggAttack, DstHostBits: 4,
	}
	// Row 0 limits locally at the core; row 1 also pushes the limit to
	// the upstream ingresses. Each reads its end-to-end loss: what the
	// upstreams were offered against what the core delivered.
	var pb *acc.Pushback
	var benignLoss, attackLoss []float64
	legs := make([]leg, 2)
	for i := range legs {
		var u1, u2 *legOut
		legs[i] = leg{end: end, build: func(t *topo) {
			core := t.port(withACC(acc.DefaultConfig()), coreRate)
			u1, u2 = t.port(fifo, upRate), t.port(fifo, upRate)
			t.chain(u1, core, eventsim.Millisecond)
			t.chain(u2, core, eventsim.Millisecond)
			if i == 1 {
				pb = acc.EnablePushback(t.eng, core.acc, []*acc.Upstream{acc.NewUpstream("u1", u1.port), acc.NewUpstream("u2", u2.port)})
			}
			attack := traffic.NewCBR(end/8, end, 60e6, attackSpec.Factory(opt.Seed+77))
			t.replay(traffic.Merge(mkBenign(1), attack), u1)
			t.replay(mkBenign(2), u2)
		}, read: func(_ *Result, core *legOut) {
			offered, offeredM := u1.rec.ArrivedBenign()+u2.rec.ArrivedBenign(), u1.rec.ArrivedMalicious()+u2.rec.ArrivedMalicious()
			benignLoss = append(benignLoss, 100*(1-float64(core.rec.DeliveredBenignPkts())/float64(offered)))
			attackLoss = append(attackLoss, 100*(1-float64(core.rec.DeliveredMaliciousPkts())/float64(offeredM)))
		}}
	}
	runLegs(opt, r, legs)
	localB, localA, pushB, pushA, props := benignLoss[0], attackLoss[0], benignLoss[1], attackLoss[1], pb.Propagations
	r.Add(Series{Name: "Local ACC/benign drops", Y: []float64{localB}})
	r.Add(Series{Name: "Pushback ACC/benign drops", Y: []float64{pushB}})
	r.Add(Series{Name: "Local ACC/attack drops", Y: []float64{localA}})
	r.Add(Series{Name: "Pushback ACC/attack drops", Y: []float64{pushA}})
	r.Note("local ACC: %.1f%% end-to-end benign drops (the attack still saturates its upstream link); "+
		"pushback: %.1f%% (limit enforced at the upstream ingress, %d propagations)",
		localB, pushB, props)
	r.Note("attack drops: local %.1f%% vs pushback %.1f%% — equally suppressed, but earlier in the path", localA, pushA)
	return r
}
