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

	run := func(def defense) (goodput float64, rec *netsim.Recorder) {
		eng := eventsim.New()
		rec = netsim.NewRecorder(eventsim.Second)
		port := def(eng, rec, link, &legOut{})

		pool := packet.NewPool()
		port.SetPool(pool)
		flows := make([]*netsim.AIMD, nFlows)
		for i := range flows {
			flows[i] = netsim.NewAIMD(eng, port, netsim.AIMDConfig{
				SrcIP: packet.V4Addr{172, 16, 1, byte(10 + i)}, DstIP: packet.V4Addr{198, 18, byte(10 + i), 1},
				SrcPort: uint16(20_000 + i), DstPort: 443,
				Size: 1200, RTT: 20 * eventsim.Millisecond,
				End: end, FlowID: uint32(1 + i), Seed: opt.Seed + int64(i),
			})
			flows[i].SetPool(pool)
		}
		// Pulse wave: 5 s pulses at 4x link with 5 s interleave.
		pulse := traffic.FlowSpec{
			SrcIP: packet.V4Addr{203, 0, 113, 9}, DstIP: packet.V4Addr{198, 18, 7, 1},
			Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80, TTL: 58, Size: 1000,
			Label: packet.Malicious, Vector: "pulse", FlowID: 99,
		}
		var srcs []traffic.Source
		for at := 5 * eventsim.Second; at+5*eventsim.Second <= end; at += 10 * eventsim.Second {
			srcs = append(srcs, traffic.NewCBR(at, at+5*eventsim.Second, 4*link, pulse.Factory(opt.Seed+int64(at))))
		}
		merged := traffic.Merge(srcs...)
		traffic.AttachPool(merged, pool)
		netsim.Replay(eng, merged, port)
		eng.RunUntil(end + eventsim.Second)

		var sum float64
		for _, f := range flows {
			sum += f.Goodput()
		}
		return sum, rec
	}

	fifoGoodput, fifoRec := run(fifo)
	turboGoodput, turboRec := run(turbo(hwTurboConfig()))
	r.Add(throughputSeries(fifoRec, packet.Benign, "FIFO/Benign delivered"))
	r.Add(throughputSeries(turboRec, packet.Benign, "ACC-Turbo/Benign delivered"))
	r.Add(Series{Name: "FIFO/total goodput (Mbps)", Y: []float64{fifoGoodput / 1e6}})
	r.Add(Series{Name: "ACC-Turbo/total goodput (Mbps)", Y: []float64{turboGoodput / 1e6}})
	r.Note("8 AIMD flows under a pulse wave: goodput %.1f Mbps on FIFO vs %.1f Mbps with ACC-Turbo "+
		"(%.1fx) — with congestion control in the loop, undefended pulses do even more damage than the "+
		"trace replay shows, exactly as §7.1 anticipates",
		fifoGoodput/1e6, turboGoodput/1e6, turboGoodput/fifoGoodput)
	return r
}
