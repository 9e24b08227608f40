package experiments

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// TCPExperiment is an extension quantifying the paper's §7.1 remark:
// "we are replaying traffic traces and do not see the impact of
// end-host congestion control. With the effect of congestion control,
// performance would worsen even further." Eight closed-loop AIMD
// flows replace the replayed background; the pulse-wave attack runs on
// top under FIFO and under ACC-Turbo, and aggregate goodput tells the
// story: AIMD backs off hard on FIFO's indiscriminate losses, while a
// scheduling defense keeps the benign flows from ever seeing them.
func TCPExperiment(opt Options) *Result {
	r := &Result{
		ID:     "tcp",
		Title:  "extension: closed-loop (AIMD) background under a pulse wave",
		XLabel: "time (s)",
		YLabel: "goodput (Mbps)",
	}
	const link = 10e6
	end := sized(opt, 60*eventsim.Second, 25*eventsim.Second)
	const nFlows = 8

	var goodput []float64
	schemes := []scheme{{"FIFO", fifo}, {"ACC-Turbo", turbo(hwTurboConfig())}}
	legs := make([]leg, len(schemes))
	for k, s := range schemes {
		var flows [nFlows]*netsim.AIMD
		legs[k] = leg{end: end + eventsim.Second, build: func(t *topo) {
			port := t.port(s.def, link)
			for i := range flows {
				flows[i] = t.aimd(netsim.AIMDConfig{
					SrcIP: packet.V4Addr{172, 16, 1, byte(10 + i)}, DstIP: packet.V4Addr{198, 18, byte(10 + i), 1},
					SrcPort: uint16(20_000 + i), DstPort: 443,
					Size: 1200, RTT: 20 * eventsim.Millisecond,
					End: end, FlowID: uint32(1 + i), Seed: opt.Seed + int64(i),
				}, port)
			}
			// Pulse wave: 5 s pulses at 4x link with 5 s interleave.
			pulse := traffic.FlowSpec{
				SrcIP: packet.V4Addr{203, 0, 113, 9}, DstIP: packet.V4Addr{198, 18, 7, 1},
				Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80, TTL: 58, Size: 1000,
				Label: packet.Malicious, Vector: "pulse", FlowID: 99,
			}
			pulses := eventsim.Pulses{First: 5 * eventsim.Second, Len: 5 * eventsim.Second, Period: 10 * eventsim.Second}
			pulses.Count = int((end-10*eventsim.Second)/pulses.Period) + 1 // every pulse that ends by end
			var srcs []traffic.Source
			for i := range pulses.Count {
				at, stop := pulses.Window(i)
				srcs = append(srcs, traffic.NewCBR(at, stop, 4*link, pulse.Factory(opt.Seed+int64(at))))
			}
			t.replay(traffic.Merge(srcs...), port)
		}, read: func(r *Result, o *legOut) {
			r.Add(throughputSeries(o.rec, packet.Benign, s.name+"/Benign delivered"))
			var sum float64
			for _, f := range flows {
				sum += f.Goodput()
			}
			goodput = append(goodput, sum)
		}}
	}
	runLegs(opt, r, legs)
	fifoGoodput, turboGoodput := goodput[0], goodput[1]
	r.Add(Series{Name: "FIFO/total goodput (Mbps)", Y: []float64{fifoGoodput / 1e6}})
	r.Add(Series{Name: "ACC-Turbo/total goodput (Mbps)", Y: []float64{turboGoodput / 1e6}})
	r.Note("8 AIMD flows under a pulse wave: goodput %.1f Mbps on FIFO vs %.1f Mbps with ACC-Turbo "+
		"(%.1fx) — with congestion control in the loop, undefended pulses do even more damage than the "+
		"trace replay shows, exactly as §7.1 anticipates",
		fifoGoodput/1e6, turboGoodput/1e6, turboGoodput/fifoGoodput)
	return r
}
