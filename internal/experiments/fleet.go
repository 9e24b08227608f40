package experiments

import (
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/fleet"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// The fleet scenario: fleetNodes vantage points, each a 10 Mbps ingress
// of the same victim. Rates are chosen so that the attack is invisible
// to any single node but dominant fleet-wide:
//
//   - per node, one heavy benign aggregate at 7 Mbps targeting a
//     *different* /24 per node (dst byte 2 = 32, 96, 160 — SliceInit
//     slices 0..2), and
//   - a distributed-source pulse at 5 Mbps per node, every node hitting
//     the *same* /24 (dst byte 2 = 224 — slice 3).
//
// Locally 5 < 7: throughput ranking marks the benign aggregate most
// suspicious and demotes it, so during every pulse the single-node
// defense sheds benign traffic about as badly as an undefended FIFO —
// the defense is squandered. Fleet-wide the attack sums to 15 Mbps
// against 7, so the merged ranking demotes the attack slot on every
// node and benign traffic rides out the pulses nearly untouched.

// fleetTurboConfig is hwTurboConfig with slice-seeded clustering: slot
// i covers dst byte 2 in [64i, 64i+63] on every node (the 1 s reseed
// restores the tiling), so slot identity is fleet-wide and the
// coordinator's slot-wise merge compares like with like. Without it,
// slots form in arrival order and every node's benign aggregate lands
// at the same index, summing past the attack in the merged view.
func fleetTurboConfig() core.Config {
	cfg := hwTurboConfig()
	cfg.Clustering.SliceInit = true
	return cfg
}

const (
	fleetNodes      = 3
	fleetBenignRate = 7e6
	fleetAttackRate = 5e6
)

// The coordinator partition: it starts 4 s into the second pulse and
// heals 4 s after it, before the third.
var fleetPartitionAt, fleetPartitionHeal = func() (eventsim.Time, eventsim.Time) {
	start, end := hwPulses.Window(1)
	return start + 4*eventsim.Second, end + 4*eventsim.Second
}()

// fleetNodeTraffic builds vantage point `node`'s ingress: its local
// benign aggregate plus its slice of the distributed pulse wave.
func fleetNodeTraffic(seed int64, node int, end eventsim.Time) traffic.Source {
	benign := traffic.FlowSpec{
		SrcIP:    packet.V4Addr{192, 0, 2, byte(10 + node)},
		DstIP:    packet.V4Addr{198, 18, byte(32 + 64*node), 1}, // slice `node`
		Protocol: packet.ProtoUDP,
		SrcPort:  uint16(20_000 + node),
		DstPort:  443,
		TTL:      64,
		Size:     1000,
		Label:    packet.Benign,
		Vector:   "benign-agg",
		FlowID:   uint32(10 + node),
	}
	srcs := []traffic.Source{
		traffic.NewCBR(0, end, fleetBenignRate, benign.Factory(seed+int64(100+node))),
	}
	for p := range hwPulses.Count {
		attack := traffic.FlowSpec{
			SrcIP:    packet.V4Addr{203, 0, 113, byte(10 + node)}, // distinct source per node
			DstIP:    packet.V4Addr{198, 18, 224, byte(1 + p)},    // slice 3 on every node
			Protocol: packet.ProtoUDP,
			SrcPort:  uint16(10_000 + node),
			DstPort:  uint16(7000 + p),
			TTL:      58,
			Size:     1000,
			Label:    packet.Malicious,
			Vector:   "UDP-pulse",
			FlowID:   traffic.AggAttack,
		}
		start, stop := hwPulses.Window(p)
		srcs = append(srcs, traffic.NewCBR(start, stop, fleetAttackRate, attack.Factory(seed+int64(10*node+p))))
	}
	return traffic.Merge(srcs...)
}

// The fleet experiment's legs, in row order.
const (
	fleetFIFO        = iota // undefended, the baseline both defenses must beat
	fleetLocal              // ACC-Turbo on every node, each ranking alone
	fleetRanked             // ranked through the coordinator
	fleetPartitioned        // as fleetRanked, the coordinator cut off mid-pulse
)

// fleetSamples are when the partitioned leg samples its ranking sources.
var fleetSamples = []eventsim.Time{
	fleetPartitionAt - 2*eventsim.Second, // connected, mid-pulse
	fleetPartitionAt + 4*eventsim.Second, // partitioned past the staleness bound
	fleetPartitionHeal + 4*eventsim.Second,
}

// fleetRun is one fleet leg's vantage points and, when they rank
// through the coordinator, the link and its ends.
type fleetRun struct {
	nodes   []*legOut
	rankers []*fleet.Node
	coord   *fleet.Coordinator
	link    *fleet.SimLink
	ends    []*fleet.NodeEnd
	// sources samples each node's ranking source at fleetSamples.
	sources map[eventsim.Time][fleetNodes]string
}

// fleetLeg replays the distributed scenario through fleetNodes ports on
// one engine, built as mode says. Ranked nodes reach the coordinator
// over a SimLink, so ports, control loops and the protocol's bytes all
// interleave on the one engine, deterministic down to the byte.
func fleetLeg(seed int64, end eventsim.Time, mode int, run *fleetRun) leg {
	return leg{end: end, build: func(t *topo) {
		coordShape, nodeShape := fleet.Shape(fleetTurboConfig())
		if mode >= fleetRanked {
			run.link = fleet.NewSimLink(t.eng)
			run.coord = must(fleet.NewCoordinator(run.link.Coordinator(), coordShape))
		}
		for i := 0; i < fleetNodes; i++ {
			def := fifo
			if mode != fleetFIFO {
				cfg := fleetTurboConfig()
				if run.link != nil {
					end := run.link.Node(uint32(i + 1))
					run.ends = append(run.ends, end)
					ranker := must(fleet.NewNode(uint32(i+1), end, t.eng.Now, nodeShape))
					run.rankers = append(run.rankers, ranker)
					cfg.Ranker = ranker
				}
				def = turbo(cfg)
			}
			node := t.port(def, hwLink)
			run.nodes = append(run.nodes, node)
			t.replay(fleetNodeTraffic(seed, i, end), node)
		}
		if mode != fleetPartitioned {
			return
		}
		t.eng.At(fleetPartitionAt, func(eventsim.Time) { run.link.SetUp(false) })
		t.eng.At(fleetPartitionHeal, func(eventsim.Time) { run.link.SetUp(true) })
		run.sources = make(map[eventsim.Time][fleetNodes]string)
		for _, at := range fleetSamples {
			t.eng.At(at, func(eventsim.Time) {
				var s [fleetNodes]string
				for i, rk := range run.rankers {
					s[i] = rk.Source()
				}
				run.sources[at] = s
			})
		}
	}}
}

// dropped counts the frames the run's link lost to the partition and the
// frames its ends dropped for want of a connection; reconnects counts the
// nodes' handshakes after their first.
func (fr *fleetRun) dropped() (frames, reconnects uint64) {
	frames = fr.link.Lost + fr.link.Coordinator().Stats().DropsNoPeer
	for _, e := range fr.ends {
		st := e.Stats()
		frames += st.DropsDisconnected
		reconnects += st.Connects - 1
	}
	return frames, reconnects
}

// aggregateBenign sums delivered benign bits per second across nodes.
func (fr *fleetRun) aggregateBenign(name string) Series {
	var y []float64
	for _, n := range fr.nodes {
		for i, v := range n.rec.DeliveredBits(packet.Benign) {
			for len(y) <= i {
				y = append(y, 0)
			}
			y[i] += v / 1e6
		}
	}
	return secondSeries(name, y, 1)
}

// Fleet reproduces the paper's motivating distributed-defense gap as an
// 18th experiment: a pulse-wave attack spread across fleetNodes vantage
// points, under FIFO, per-node single defenses, a coordinated fleet,
// and a fleet whose coordinator partitions mid-pulse. Deterministic for
// a fixed seed; the golden manifest pins the bytes at two seeds.
func Fleet(opt Options) *Result {
	r := &Result{
		ID:     "fleet",
		Title:  "distributed-source pulse wave: single-node vs fleet ranking",
		XLabel: "time (s)",
		YLabel: "benign throughput, all nodes (Mbps)",
	}
	end := sized(opt, 100*eventsim.Second, 50*eventsim.Second)
	runs := make([]fleetRun, fleetPartitioned+1)
	legs := make([]leg, len(runs))
	for m := range runs {
		legs[m] = fleetLeg(opt.Seed, end, m, &runs[m])
	}
	runLegs(opt, r, legs)
	fifo, local, fl, part := &runs[fleetFIFO], &runs[fleetLocal], &runs[fleetRanked], &runs[fleetPartitioned]
	fifoDrops, localDrops, flDrops, partDrops := benignDrops(fifo.nodes), benignDrops(local.nodes), benignDrops(fl.nodes), benignDrops(part.nodes)

	r.Add(fifo.aggregateBenign("FIFO/Output Benign"))
	r.Add(local.aggregateBenign("single-node/Output Benign"))
	r.Add(fl.aggregateBenign("fleet/Output Benign"))
	r.Add(part.aggregateBenign("fleet+partition/Output Benign"))

	// Headline: benign drops per node and defense. The single-node
	// defense misranks (local benign 7 Mbps > local attack 5 Mbps), so
	// it protects nothing — benign losses stay at FIFO levels; the
	// fleet ranking (attack 15 Mbps global) recovers it.
	for i := 0; i < fleetNodes; i++ {
		r.Note("node %d benign drops: FIFO %5.2f%%, single-node %5.2f%%, fleet %5.2f%%",
			i, fifoDrops[i], localDrops[i], flDrops[i])
	}
	worstFleet, bestLocal := maxOf(flDrops), minOf(localDrops)
	r.Note("fleet beats every single-node defense: worst fleet node %.2f%% < best single node %.2f%%: %v",
		worstFleet, bestLocal, worstFleet < bestLocal)
	cs := fl.coord.Stats()
	flDropped, _ := fl.dropped()
	r.Note("coordinator: %d nodes, %d epochs, %d merges, %d rejected frames, %d frames dropped in transit",
		cs.Nodes, cs.Epoch, cs.Merges, cs.Rejected, flDropped)

	// Partition narrative: sources sampled around the outage show the
	// degradation is to the *local ranking*, never to undefended FIFO,
	// and that the fleet recovers after the heal.
	for _, at := range fleetSamples {
		s := part.sources[at]
		r.Note("partition leg t=%2ds: node ranking sources %v", int(at/eventsim.Second), s)
	}
	var engagements, fleetPolls, localPolls uint64
	for _, rk := range part.rankers {
		st := rk.Stats()
		engagements += st.FallbackEngagements
		fleetPolls += st.FleetPolls
		localPolls += st.LocalPolls
	}
	partDropped, reconnects := part.dropped()
	r.Note("partition leg: %d fallback engagements across nodes, %d fleet polls, %d local-fallback polls, %d frames dropped by the partition, %d reconnects",
		engagements, fleetPolls, localPolls, partDropped, reconnects)
	r.Note("partition cost: mean benign drops %.2f%% (vs %.2f%% unpartitioned fleet) — the outage re-exposes the single-node blind spot only while it lasts",
		tailMean(partDrops, fleetNodes), tailMean(flDrops, fleetNodes))
	recovered := part.sources[fleetSamples[2]] == [fleetNodes]string{"fleet", "fleet", "fleet"}
	r.Note("full recovery after heal at t=%ds: %v", int(fleetPartitionHeal/eventsim.Second), recovered)
	return r
}
