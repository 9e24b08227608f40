package experiments

import (
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/fleet"
	"accturbo/internal/netsim"
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
	// The coordinator partition: starts mid-pulse-2 (pulses occupy
	// [10,20), [30,40), ...) and heals before pulse 3.
	fleetPartitionAt   = 34 * eventsim.Second
	fleetPartitionHeal = 44 * eventsim.Second
)

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
	for p := 0; p < 4; p++ {
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
		start := eventsim.Time(10+20*p) * eventsim.Second
		srcs = append(srcs, traffic.NewCBR(start, start+10*eventsim.Second,
			fleetAttackRate, attack.Factory(seed+int64(10*node+p))))
	}
	return traffic.Merge(srcs...)
}

// fleetRun holds one defense leg's outputs across all vantage points.
type fleetRun struct {
	recs    [fleetNodes]*netsim.Recorder
	rankers [fleetNodes]*fleet.Node // nil in local mode
	coord   *fleet.Coordinator      // nil in local mode
	tr      *fleet.SimTransport     // nil in local mode
	// sources samples each node's ranking source at sample times.
	sources map[eventsim.Time][fleetNodes]string
}

// runFleetDefense replays the distributed scenario through fleetNodes
// ACC-Turbo pipelines sharing one discrete-event engine. In fleet mode
// the pipelines rank through a SimTransport-connected coordinator
// (optionally partitioned over [partitionAt, healAt)); otherwise each
// node ranks alone. Everything — ports, control loops, transport
// deliveries — interleaves on the one engine, so runs are
// deterministic down to the byte.
func runFleetDefense(seed int64, end eventsim.Time, fleetMode bool, partitionAt, healAt eventsim.Time, sampleAt []eventsim.Time) *fleetRun {
	eng := eventsim.New()
	run := &fleetRun{sources: make(map[eventsim.Time][fleetNodes]string)}
	coordShape, nodeShape := fleet.Shape(fleetTurboConfig())
	if fleetMode {
		run.tr = fleet.NewSimTransport(eng, eventsim.Millisecond)
		run.coord = must(fleet.NewCoordinator(run.tr, coordShape))
	}
	for i := 0; i < fleetNodes; i++ {
		cfg := fleetTurboConfig()
		if fleetMode {
			ranker := must(fleet.NewNode(uint32(i+1), run.tr, eng.Now, nodeShape))
			run.rankers[i] = ranker
			cfg.Ranker = ranker
		}
		rec := netsim.NewRecorder(eventsim.Second)
		run.recs[i] = rec
		port, _ := must2(core.Attach(eng, hwLink, rec, cfg))
		src := fleetNodeTraffic(seed, i, end)
		recycle(src, port)
		netsim.Replay(eng, src, port)
	}
	if fleetMode && partitionAt > 0 {
		eng.At(partitionAt, func(eventsim.Time) { run.tr.SetUp(false) })
		eng.At(healAt, func(eventsim.Time) { run.tr.SetUp(true) })
	}
	if fleetMode {
		for _, at := range sampleAt {
			at := at
			eng.At(at, func(eventsim.Time) {
				var s [fleetNodes]string
				for i, rk := range run.rankers {
					s[i] = rk.Source()
				}
				run.sources[at] = s
			})
		}
	}
	eng.RunUntil(end)
	return run
}

// benignDrops returns node i's benign drop percentage.
func (fr *fleetRun) benignDrops(i int) float64 { return fr.recs[i].BenignDropPercent() }

// aggregateBenign sums delivered benign bits per second across nodes.
func (fr *fleetRun) aggregateBenign(name string) Series {
	var y []float64
	for _, rec := range fr.recs {
		bits := rec.DeliveredBits(packet.Benign)
		for i, v := range bits {
			for len(y) <= i {
				y = append(y, 0)
			}
			y[i] += v / 1e6
		}
	}
	x := make([]float64, len(y))
	for i := range x {
		x[i] = float64(i)
	}
	return Series{Name: name, X: x, Y: y}
}

// runFleetFIFO replays the same per-node traffic through undefended
// FIFO bottlenecks (the baseline both defenses must beat).
func runFleetFIFO(seed int64, end eventsim.Time) *fleetRun {
	run := &fleetRun{}
	for i := 0; i < fleetNodes; i++ {
		run.recs[i] = replay(fleetNodeTraffic(seed, i, end), end, func(eng *eventsim.Engine, rec *netsim.Recorder) *netsim.Port {
			return fifo(eng, rec, hwLink, nil)
		})
	}
	return run
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
	samples := []eventsim.Time{
		fleetPartitionAt - 2*eventsim.Second, // connected, mid-pulse 2
		fleetPartitionAt + 4*eventsim.Second, // partitioned past the staleness bound
		fleetPartitionHeal + 4*eventsim.Second,
	}

	fifo := runFleetFIFO(opt.Seed, end)
	local := runFleetDefense(opt.Seed, end, false, 0, 0, nil)
	fl := runFleetDefense(opt.Seed, end, true, 0, 0, nil)
	part := runFleetDefense(opt.Seed, end, true, fleetPartitionAt, fleetPartitionHeal, samples)

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
			i, fifo.benignDrops(i), local.benignDrops(i), fl.benignDrops(i))
	}
	worstFleet, bestLocal := 0.0, 1e18
	for i := 0; i < fleetNodes; i++ {
		if d := fl.benignDrops(i); d > worstFleet {
			worstFleet = d
		}
		if d := local.benignDrops(i); d < bestLocal {
			bestLocal = d
		}
	}
	r.Note("fleet beats every single-node defense: worst fleet node %.2f%% < best single node %.2f%%: %v",
		worstFleet, bestLocal, worstFleet < bestLocal)
	cs := fl.coord.Stats()
	r.Note("coordinator: %d nodes, %d epochs, %d merges, %d rejected frames, %d frames dropped in transit",
		cs.Nodes, cs.Epoch, cs.Merges, cs.Rejected, fl.tr.Dropped)

	// Partition narrative: sources sampled around the outage show the
	// degradation is to the *local ranking*, never to undefended FIFO,
	// and that the fleet recovers after the heal.
	for _, at := range samples {
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
	r.Note("partition leg: %d fallback engagements across nodes, %d fleet polls, %d local-fallback polls, %d frames dropped by the partition",
		engagements, fleetPolls, localPolls, part.tr.Dropped)
	var partAgg, fleetAgg float64
	for i := 0; i < fleetNodes; i++ {
		partAgg += part.benignDrops(i)
		fleetAgg += fl.benignDrops(i)
	}
	r.Note("partition cost: mean benign drops %.2f%% (vs %.2f%% unpartitioned fleet) — the outage re-exposes the single-node blind spot only while it lasts",
		partAgg/fleetNodes, fleetAgg/fleetNodes)
	recovered := true
	if s, ok := part.sources[samples[2]]; ok {
		for _, v := range s {
			if v != "fleet" {
				recovered = false
			}
		}
	}
	r.Note("full recovery after heal at t=%ds: %v", int(fleetPartitionHeal/eventsim.Second), recovered)
	return r
}
