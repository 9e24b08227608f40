package experiments

import (
	"accturbo/internal/acc"
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
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

	run := func(withPushback bool) (float64, float64, uint64) {
		const (
			coreRate = 10e6
			upRate   = 20e6
		)
		eng := eventsim.New()
		rec := netsim.NewRecorder(eventsim.Second)
		rec1 := netsim.NewRecorder(eventsim.Second)
		rec2 := netsim.NewRecorder(eventsim.Second)

		o := &legOut{}
		core := withACC(acc.DefaultConfig())(eng, rec, coreRate, o)
		u1 := fifo(eng, rec1, upRate, nil)
		u2 := fifo(eng, rec2, upRate, nil)
		netsim.Chain(eng, u1, core, eventsim.Millisecond)
		netsim.Chain(eng, u2, core, eventsim.Millisecond)

		var pb *acc.Pushback
		if withPushback {
			ups := []*acc.Upstream{acc.NewUpstream("u1", u1), acc.NewUpstream("u2", u2)}
			pb = acc.EnablePushback(eng, o.acc, ups)
		}

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
		attack := traffic.NewCBR(end/8, end, 60e6, attackSpec.Factory(opt.Seed+77))

		netsim.Replay(eng, traffic.Merge(mkBenign(1), attack), u1)
		netsim.Replay(eng, mkBenign(2), u2)
		eng.RunUntil(end)

		offered := rec1.ArrivedBenign() + rec2.ArrivedBenign()
		benignLoss := 100 * (1 - float64(rec.DeliveredBenignPkts())/float64(offered))
		offeredM := rec1.ArrivedMalicious() + rec2.ArrivedMalicious()
		attackLoss := 100 * (1 - float64(rec.DeliveredMaliciousPkts())/float64(offeredM))
		var props uint64
		if pb != nil {
			props = pb.Propagations
		}
		return benignLoss, attackLoss, props
	}

	localB, localA, _ := run(false)
	pushB, pushA, props := run(true)
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
