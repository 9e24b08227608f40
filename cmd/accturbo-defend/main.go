// Command accturbo-defend is the operator-facing front end (§10) of the
// library: it runs the public Defense pipeline over a raw-IP pcap (see
// cmd/trafficgen) and reports, per packet or per aggregate, how
// ACC-Turbo would schedule the traffic. The capture is memory-mapped
// once and read through traffic.PcapSource in every mode: capture time
// counts from the first record's second, so a tcpdump capture stamped
// with wall-clock time replays like one written from zero, and a frame
// that is not IPv4 is skipped and counted on stderr. One invocation
// runs one mode:
//
//   - Single pipeline (default). Deterministic replay runs the control
//     loop in the capture's own timeline, so identical inputs yield
//     identical verdicts; -batch N feeds ObserveBatch instead of
//     Process. -realtime (or -shards > 1) ignores capture timestamps:
//     -ingest workers drain a bounded queue while the control loop polls
//     on the wall clock, and a full queue blocks the reader rather than
//     shedding. -replay streams the mapping's raw frames through a
//     lock-free ingest lane — fused feature decode, no Packet structs,
//     no copies — lossless, reported in Mpps.
//   - In-process fleet (-fleet-nodes N): N deterministic pipelines under
//     one ranking coordinator on the simulated fleet link, the capture
//     partitioned across them by source IP hash and replayed in its own
//     timeline; -coordinator=false starts the link partitioned, and
//     -run-for keeps its /health up that long after the report.
//   - TCP coordinator (-coordinator-listen) and TCP node
//     (-coordinator-addr, -node-id): the multi-process fleet over the
//     ACCFLEET wire protocol. A node that loses the coordinator degrades
//     to fleet-fallback:local ranking — never undefended FIFO — and
//     recovers when the link returns; -run-for keeps it polling after
//     its capture drains, so a smoke test can kill and restart the
//     coordinator around it.
//   - Chaos relay (-chaos-proxy): a seeded socket-level fault injector
//     between nodes and coordinator, scheduled by -fault-spec's stream
//     clause. -chaos-plan prints its exact per-connection schedule
//     without opening a socket, whose bytes internal/manifest pins.
//
// Riding on the capture modes: -metrics-addr serves the mode's
// internal/admin surface (/health everywhere, 503 while degraded;
// /metrics where there is a pipeline; GET /victims with -victims, and
// GET/PUT /config and POST /snapshot in real-time mode, for the single
// pipeline).
// -fault-spec with -chaos-seed injects deterministic packet faults and
// control-plane stalls (internal/faults; every mode refuses a clause it
// has no place for), and -fail-open-after arms the watchdog that reverts
// to uniform priority when decisions go stale. -snapshot-out and
// -restore carry the full defense state across a restart, so the new
// process resumes with the deployed decision instead of re-converging
// (with -restore, -in is optional). -victims K reports the
// heavy-keeper's top-K destination aggregates, windowed on capture time.
//
// Usage:
//
//	accturbo-defend -in day.pcap                    # aggregate report
//	accturbo-defend -in day.pcap -verdicts out.csv  # per-packet verdicts
//	accturbo-defend -in day.pcap -realtime -shards 4
//	accturbo-defend -in day.pcap -replay -replay-loops 4
//	accturbo-defend -in day.pcap -realtime -metrics-addr :9100
//	accturbo-defend -in day.pcap -chaos-seed 7 -fault-spec 'drop:p=0.01;stall:at=5s,for=2s' -fail-open-after 3s
//	accturbo-defend -in day.pcap -snapshot-out day.snap
//	accturbo-defend -restore day.snap -in next.pcap
//	accturbo-defend -in day.pcap -victims 8 -victim-window 500
//	accturbo-defend -in day.pcap -fleet-nodes 3
//	accturbo-defend -coordinator-listen :7100 -metrics-addr :9100
//	accturbo-defend -in day.pcap -coordinator-addr :7100 -node-id 1 -metrics-addr :9101 -run-for 30s
//	accturbo-defend -chaos-proxy :7200 -chaos-proxy-target :7100 -chaos-seed 7 -fault-spec 'stream:corrupt=4096'
//	accturbo-defend -chaos-plan 3 -chaos-seed 7 -fault-spec 'stream:corrupt=4096,reset=32768,delay=8192,for=5ms'
package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"accturbo"
	"accturbo/internal/admin"
	"accturbo/internal/faults"
	"accturbo/internal/fleet"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
	"accturbo/internal/traffic"
)

var (
	in               = flag.String("in", "", "input pcap (raw-IP linktype)")
	verdictsOut      = flag.String("verdicts", "", "optional CSV of per-packet verdicts")
	clusters         = flag.Int("clusters", 4, "number of clusters / priority queues")
	pollMs           = flag.Int("poll", 250, "controller poll interval (ms)")
	reseedMs         = flag.Int("reseed", 1000, "cluster re-initialization period (ms, 0 = never)")
	realtime         = flag.Bool("realtime", false, "run the wall-clock pipeline instead of deterministic replay")
	replay           = flag.Bool("replay", false, "wire-speed frame replay: memory-map the capture and stream raw frames through a lock-free ingest lane (implies -realtime; lossless, retries under backpressure)")
	replayLoops      = flag.Int("replay-loops", 1, "passes over the capture in -replay mode")
	shards           = flag.Int("shards", 1, "data-plane clustering shards (> 1 implies -realtime)")
	ingest           = flag.Int("ingest", runtime.GOMAXPROCS(0), "ingest goroutines in real-time mode")
	ingestQueue      = flag.Int("ingest-queue", 8192, "bounded ingest queue capacity in real-time mode (packets; a full queue blocks the capture reader, and -replay retries)")
	batchSize        = flag.Int("batch", 0, "feed packets through ObserveBatch in batches of this size (0 = per-packet; incompatible with -verdicts)")
	metricsAddr      = flag.String("metrics-addr", "", "serve /metrics and /health on this address (e.g. :9100) while processing")
	chaosSeed        = flag.Uint64("chaos-seed", 0, "seed of every -fault-spec fault: packet faults, stalls and the chaos relay's byte streams")
	faultSpec        = flag.String("fault-spec", "", "fault plan: drop, dup, corrupt and stall clauses for a capture, e.g. 'drop:p=0.01;stall:at=5s,for=2s', or a stream clause for -chaos-proxy and -chaos-plan, e.g. 'stream:corrupt=4096,reset=32768,delay=8192,for=5ms' (see internal/faults)")
	failOpenAfter    = flag.Duration("fail-open-after", 0, "watchdog staleness bound: revert to uniform priority when no decision deploys for this long (0 = disabled)")
	cpuProfile       = flag.String("cpuprofile", "", "write a CPU profile of the processing loop to this file")
	restorePath      = flag.String("restore", "", "restore defense state from this snapshot file before processing (see -snapshot-out)")
	snapshotOut      = flag.String("snapshot-out", "", "write a defense state snapshot to this file after the capture drains")
	victimsK         = flag.Int("victims", 0, "track the top-K victim destination aggregates per window through the heavy-keeper detector (0 = off, at most 4096; adds GET /victims to -metrics-addr)")
	victimWindowMs   = flag.Int("victim-window", 1000, "victim-detection window length (ms of capture time; used with -victims)")
	fleetNodes       = flag.Int("fleet-nodes", 0, "run this many in-process fleet nodes under one global ranking coordinator (0 = single-node mode); capture traffic is partitioned across nodes by source IP hash")
	coordinator      = flag.Bool("coordinator", true, "with -fleet-nodes: keep the ranking coordinator reachable; false starts the fleet partitioned, so every node runs on its sticky local fallback ranking")
	coordListen      = flag.String("coordinator-listen", "", "run the standalone fleet ranking coordinator on this TCP address (multi-process fleet mode; no capture needed)")
	coordAddr        = flag.String("coordinator-addr", "", "run as one fleet node dialing the coordinator at this TCP address (multi-process fleet mode; use with -node-id)")
	nodeID           = flag.Uint("node-id", 1, "this node's fleet id (>= 1, unique per fleet; used with -coordinator-addr)")
	runFor           = flag.Duration("run-for", 0, "fleet modes: keep running this long after the capture drains — a TCP node polling, an in-process fleet serving /health (0 = forever for -coordinator-listen/-chaos-proxy, exit after the report for nodes and -fleet-nodes)")
	chaosProxyAddr   = flag.String("chaos-proxy", "", "run a socket-level chaos relay on this TCP address (use with -chaos-proxy-target, -chaos-seed and a -fault-spec stream clause)")
	chaosProxyTarget = flag.String("chaos-proxy-target", "", "the address the chaos relay forwards to (usually the coordinator)")
	chaosPlan        = flag.Int("chaos-plan", 0, "print the deterministic chaos-relay fault schedule of the first 64 KiB of each direction, for this many connections, and exit (uses -chaos-seed and the -fault-spec stream clause)")
)

func fatal(code int, v ...any) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(code)
}

// millis converts millisecond flag name's value, refusing a negative
// one and one whose nanoseconds overflow a time.Duration.
func millis(name string, ms int) time.Duration {
	const most = math.MaxInt64 / int64(time.Millisecond)
	if ms < 0 || int64(ms) > most {
		fatal(2, fmt.Sprintf("-%s %d is outside [0, %d] ms", name, ms, most))
	}
	return time.Duration(ms) * time.Millisecond
}

func main() {
	flag.Parse()

	poll, reseed, victimWindow := millis("poll", *pollMs), millis("reseed", *reseedMs), millis("victim-window", *victimWindowMs)
	if *nodeID > math.MaxUint32 {
		fatal(2, fmt.Sprintf("-node-id %d does not fit in 32 bits", *nodeID))
	}
	spec, err := faults.ParseSpec(*faultSpec)
	if err != nil {
		fatal(2, err)
	}
	// Each mode refuses the clauses it has no place for.
	relay := *chaosPlan > 0 || *chaosProxyAddr != ""
	notStream := spec
	notStream.Stream = faults.StreamSpec{}
	switch {
	case relay && !notStream.Empty():
		fatal(2, "-fault-spec: the chaos relay injects stream clauses only, and has no packets or clock to fault")
	case relay:
	case *coordListen != "" && !spec.Empty():
		fatal(2, "-fault-spec: -coordinator-listen has no capture, link or byte stream to fault")
	case spec.Stream != faults.StreamSpec{}:
		fatal(2, "-fault-spec: stream clauses need the chaos relay (-chaos-proxy or -chaos-plan)")
	case len(spec.Flaps) > 0:
		fatal(2, "-fault-spec: flap clauses need a simulated link, and a capture has none")
	}
	if *chaosPlan > 0 {
		fmt.Print(spec.Stream.Plan(*chaosSeed, *chaosPlan))
		return
	}
	if *chaosProxyAddr != "" {
		if *chaosProxyTarget == "" {
			fatal(2, "-chaos-proxy needs -chaos-proxy-target")
		}
		runChaosProxy(spec)
		return
	}
	tcpFleetMode := *coordListen != "" || *coordAddr != ""
	if *in == "" && *restorePath == "" && !tcpFleetMode {
		fatal(2, "missing -in capture (or -restore snapshot)")
	}
	if *replay && *in == "" {
		fatal(2, "-replay needs an -in capture")
	}
	if *fleetNodes < 0 {
		fatal(2, "-fleet-nodes must not be negative (0 = single-node mode)")
	}
	*ingest = max(1, *ingest) // what the report prints is what feedRealTime starts
	if *shards > 1 {
		*realtime = true
	}
	if *replay {
		*realtime = true
		if *verdictsOut != "" || *batchSize > 1 || *faultSpec != "" || *victimsK > 0 {
			fatal(2, "-replay streams raw frames and cannot be combined with -verdicts, -batch, -fault-spec, or -victims")
		}
		if *replayLoops < 1 {
			fatal(2, "-replay-loops must be at least 1")
		}
	}
	if *batchSize > 1 && *verdictsOut != "" {
		fatal(2, "-batch cannot be combined with -verdicts: the batch path reports queue counts, not per-packet distances")
	}
	// singleOnly holds when a flag that only the single pipeline serves
	// is set; both fleet shapes refuse it.
	singleOnly := *replay || *verdictsOut != "" || *batchSize > 1 || *restorePath != "" || *snapshotOut != "" || *shards > 1 || *victimsK > 0

	src := &captureStream{}
	if !spec.Empty() {
		src.injector = faults.New(*chaosSeed, spec)
	}
	// One mapping of the capture serves every mode: -replay offers its
	// raw frames, every other mode reads packets through src.
	var frames *pcap.MappedReader
	if *in != "" {
		if frames, err = pcap.OpenMapped(*in); err != nil {
			fatal(1, err)
		}
		defer frames.Close()
		src.capture = traffic.NewPcapSource(frames)
	}

	cfg := accturbo.HardwareConfig()
	cfg.Clustering.MaxClusters = *clusters
	cfg.Clustering.SliceInit = true
	cfg.NumQueues = *clusters
	cfg.Shards = *shards
	cfg.PollInterval = accturbo.FromDuration(poll)
	cfg.DeployDelay = cfg.PollInterval / 5
	if reseed > 0 {
		cfg.ReseedInterval = accturbo.FromDuration(reseed)
	}
	cfg.FailOpenAfter = accturbo.FromDuration(*failOpenAfter)
	if src.injector != nil {
		// Stall windows wrap the control loop's clock: the capture
		// timeline in replay mode, wall time since startup in real-time
		// mode. The watchdog stays on the unwrapped clock either way.
		cfg.WrapClock = src.injector.ClockWrapper()
	}

	if (*restorePath != "" || *snapshotOut != "") && !cfg.Clustering.Deployed() {
		fatal(2, "-snapshot-out and -restore need the deployed clustering configuration: at most 64 -clusters")
	}

	switch {
	case tcpFleetMode:
		if *coordListen != "" && *coordAddr != "" {
			fatal(2, "-coordinator-listen and -coordinator-addr are different processes; pick one")
		}
		if *fleetNodes > 0 || singleOnly {
			fatal(2, "multi-process fleet modes cannot be combined with -fleet-nodes, -replay, -verdicts, -batch, -restore, -snapshot-out, -shards, or -victims")
		}
		if *coordListen != "" {
			runTCPCoordinator(cfg)
		} else {
			runTCPNode(cfg, src)
		}
	case *fleetNodes > 0:
		// The fleet's nodes replay on the capture's timeline, so -realtime
		// would mean nothing there.
		if singleOnly || *realtime {
			fatal(2, "-fleet-nodes cannot be combined with -realtime, -replay, -verdicts, -batch, -restore, -snapshot-out, -shards, or -victims")
		}
		runFleet(cfg, src)
	default:
		runSingle(cfg, src, frames, victimWindow)
	}
}

// serveAdmin mounts a mode's admin surface on -metrics-addr and returns
// the func that stops it; without the flag both are no-ops.
func serveAdmin(banner string, s admin.Surface) (stop func()) {
	if *metricsAddr == "" {
		return func() {}
	}
	srv, err := admin.Serve(*metricsAddr, banner, s)
	if err != nil {
		fatal(1, err)
	}
	return func() { srv.Close() }
}

// pipelineSurface is the single pipeline's admin surface and banner:
// GET/PUT /config and POST /snapshot in real-time mode only, since a
// deterministic pipeline has one owner, its feeder (see SaveState).
func pipelineSurface(d *accturbo.Defense, realtime bool) (admin.Surface, string) {
	s := admin.Surface{Health: admin.DefenseView(d), Metrics: d}
	if !realtime {
		return s, "serving metrics on http://%s/metrics, health on /health\n"
	}
	s.Live = d
	return s, "serving metrics on http://%s/metrics, health on /health, config on /config, snapshots on /snapshot\n"
}

// runSingle is the default mode: one Defense over the capture, fed
// deterministically, by the real-time worker pool, or by the wire-speed
// replay lane, then the operator report.
func runSingle(cfg accturbo.Config, src *captureStream, frames *pcap.MappedReader, victimWindow time.Duration) {
	newDefense := accturbo.NewDefense
	if *realtime {
		newDefense = accturbo.NewRealTimeDefense
	}
	d, err := newDefense(cfg)
	if err != nil {
		fatal(2, err)
	}
	defer d.Close()

	// Restore must land before any traffic: the snapshot format refuses a
	// pipeline that already has history, so a restored process resumes
	// with the pre-save deployed decision instead of re-converging.
	if *restorePath != "" {
		snap, err := os.ReadFile(*restorePath)
		if err == nil {
			err = d.RestoreState(bytes.NewReader(snap))
		}
		if err != nil {
			fatal(1, "restore:", err)
		}
		fmt.Printf("restored state from %s: %d packets observed, %d deployments, runtime config %s/%v poll\n",
			*restorePath, d.PacketsObserved(), d.Deployments(), d.Runtime().Ranking, d.Runtime().PollInterval.Duration())
	}

	surface, banner := pipelineSurface(d, *realtime)
	var victims *victimTap
	if *victimsK > 0 {
		if victims, err = newVictimTap(*victimsK, victimWindow); err != nil {
			fatal(2, err)
		}
		// Every non-replay path pulls packets through the capture stream,
		// so tapping it covers deterministic, batched, and real-time
		// feeds alike.
		src.tap = victims.observe
		surface.Victims = victims.vd
	}
	defer serveAdmin(banner, surface)()

	var vf *os.File
	if *verdictsOut != "" {
		if vf, err = os.Create(*verdictsOut); err != nil {
			fatal(1, err)
		}
		defer vf.Close()
		fmt.Fprintln(vf, "time_us,src,dst,proto,sport,dport,len,cluster,queue,distance")
	}
	// deliver hands one batch to the pipeline: a batch of one goes
	// through Process, whose verdict the CSV needs; larger batches go
	// through ObserveBatch and amortize its locks and counter flushes.
	var vfMu sync.Mutex
	deliver := func(at time.Duration, pkts []*packet.Packet) {
		if len(pkts) > 1 {
			d.ObserveBatch(at, pkts, nil)
			return
		}
		p := pkts[0]
		v := d.Process(at, p)
		if vf != nil {
			vfMu.Lock()
			fmt.Fprintf(vf, "%d,%s,%s,%d,%d,%d,%d,%d,%d,%.0f\n",
				at.Microseconds(), p.SrcIP, p.DstIP, uint8(p.Protocol),
				p.SrcPort, p.DstPort, p.Length, v.Cluster, v.Queue, v.Distance)
			vfMu.Unlock()
		}
	}

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(1, err)
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fatal(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	// The scheduling distribution is the routed counters' movement over
	// the run (a restored snapshot brings its own history).
	routedBefore := d.Metrics().RoutedPkts
	batch := max(1, *batchSize)
	start := time.Now()
	var n int
	switch {
	case *replay:
		n = feedReplay(d, frames)
	case *realtime:
		n = feedRealTime(src, batch, deliver)
	default:
		// Deterministic replay: the pipeline clock advances to each
		// batch's first timestamp, so with -batch control-loop ticks
		// quantize to batch boundaries (the amortization trade-off).
		n = feed(src, batch, deliver)
	}
	// Close drains the ingest stage (if enabled) so the routed counters
	// below are complete; the deferred Close becomes a no-op.
	d.Close()
	elapsed := time.Since(start)
	if *snapshotOut != "" {
		var snap bytes.Buffer
		err := d.SaveState(&snap)
		if err == nil {
			err = os.WriteFile(*snapshotOut, snap.Bytes(), 0o666)
		}
		if err != nil {
			fatal(1, "snapshot:", err)
		}
		fmt.Printf("state snapshot written to %s\n", *snapshotOut)
	}

	if *in != "" {
		fmt.Printf("processed %d packets from %s\n", n, *in)
	}
	rate := float64(n) / elapsed.Seconds()
	if *replay {
		fmt.Printf("replay mode: %d frames over %d pass(es) in %.2fs — %.2f Mpps (%d malformed rejected, %d backpressure retries)\n",
			n, *replayLoops, elapsed.Seconds(), rate/1e6, d.IngestRejected(), d.IngestShed())
	}
	if *realtime {
		fmt.Printf("real-time mode: %d shards, %d ingest goroutines, %.0f pkts/s wall, %d deployments, %d observed, %d shed\n",
			d.Shards(), *ingest, rate, d.Deployments(), d.PacketsObserved(), d.IngestShed())
	}
	if src.injector != nil {
		fmt.Println(src.chaosSummary())
	}
	printResilience("", d.Health())
	if victims != nil {
		victims.report()
	}
	fmt.Println("\nfinal aggregates (operator view):")
	for _, info := range d.Clusters() {
		fmt.Printf("  cluster %d -> queue %d: %8d pkts total, size %.0f\n",
			info.ID, d.QueueOf(info.ID), info.TotalPackets, info.Size)
	}
	fmt.Println("\nscheduling distribution:")
	for q, c := range d.Metrics().RoutedPkts {
		c -= routedBefore[q]
		pct := 0.0
		if n > 0 {
			pct = 100 * float64(c) / float64(n)
		}
		fmt.Printf("  queue %d (priority %d): %8d pkts (%5.1f%%)\n", q, q, c, pct)
	}
	if vf != nil {
		fmt.Printf("\nper-packet verdicts written to %s\n", *verdictsOut)
	}
}

// runFleet is the -fleet-nodes mode: N full pipelines under one
// coordinator on the simulated fleet link, the capture partitioned
// across them by source IP hash — each node sees only its ingress slice
// of the traffic, the way a distributed-source attack spreads over real
// vantage points. The nodes share one virtual clock that follows the
// capture's timestamps, so the report is deterministic. With
// -coordinator=false the link starts partitioned: every node rides its
// sticky local fallback ranking, the degraded mode an operator would see
// during a real coordinator outage. -run-for holds /health up after the
// report.
func runFleet(cfg accturbo.Config, src *captureStream) {
	nodes := *fleetNodes
	f, err := accturbo.NewFleet(accturbo.FleetConfig{Nodes: nodes, Node: cfg})
	if err != nil {
		fatal(2, err)
	}
	defer f.Close()
	f.SetLink(*coordinator)
	defer serveAdmin("serving fleet health on http://%s/health\n", admin.Surface{Health: admin.FleetView(f)})()

	perNode := make([]int, nodes)
	total := feed(src, 1, func(at time.Duration, pkts []*packet.Packet) {
		h := fnv.New32a()
		h.Write(pkts[0].SrcIP[:])
		n := int(h.Sum32() % uint32(nodes))
		f.Node(n).Process(at, pkts[0])
		perNode[n]++
	})

	fmt.Printf("fleet mode: %d nodes, %d packets partitioned by source IP\n", nodes, total)
	if src.injector != nil {
		fmt.Println(src.chaosSummary())
	}
	for n := 0; n < f.Nodes(); n++ {
		h := f.Node(n).Health()
		st := f.NodeStats(n)
		fmt.Printf("  node %d: %8d pkts, ranking source %-20s degraded=%-5v fleet/local polls %d/%d\n",
			n, perNode[n], h.Control.RankSource, h.Degraded, st.FleetPolls, st.LocalPolls)
		printResilience("    ", h)
	}
	cs := f.CoordinatorStats()
	fmt.Printf("coordinator: %d nodes reporting, epoch %d, %d merges, %d rejected frames\n",
		cs.Nodes, cs.Epoch, cs.Merges, cs.Rejected)

	fmt.Println("\nfleet-merged aggregates (global operator view):")
	merged := f.MergedClusters()
	var queueOf []int
	if dec := f.LastGlobalDecision(); dec != nil {
		queueOf = dec.QueueOf
	}
	for _, info := range merged {
		q := "-"
		if info.ID < len(queueOf) {
			q = fmt.Sprint(queueOf[info.ID])
		}
		fmt.Printf("  slot %d -> queue %s: %8d pkts this window, size %.0f\n",
			info.ID, q, info.Packets, info.Size)
	}
	if len(merged) == 0 {
		fmt.Println("  (no merged view: no node reached the coordinator)")
	}
	time.Sleep(*runFor)
}

// waitRunFor blocks for -run-for, or forever when it is zero (the
// process is expected to be killed — the smoke-test shape).
func waitRunFor() {
	if *runFor > 0 {
		time.Sleep(*runFor)
		return
	}
	select {}
}

// runTCPCoordinator is the -coordinator-listen mode: the standalone
// ranking coordinator of a multi-process fleet.
func runTCPCoordinator(cfg accturbo.Config) {
	c, err := accturbo.NewFleetTCPCoordinator(accturbo.FleetTCPCoordinatorConfig{
		ListenAddr: *coordListen,
		Node:       cfg,
	})
	if err != nil {
		fatal(1, err)
	}
	defer c.Close()
	fmt.Printf("fleet coordinator listening on %s\n", c.Addr())
	defer serveAdmin("serving coordinator health on http://%s/health\n", admin.Surface{Health: admin.CoordinatorView(c)})()

	waitRunFor()
	cs, ts := c.Stats(), c.TransportStats()
	fmt.Printf("coordinator: %d nodes reporting, epoch %d, %d merges, %d rejected frames\n",
		cs.Nodes, cs.Epoch, cs.Merges, cs.Rejected)
	fmt.Printf("transport: %d accepted, %d frames in, %d out, %d CRC resets, %d shed, %d drops (no peer %d, queue full %d)\n",
		ts.Accepted, ts.FramesIn, ts.FramesOut, ts.CRCResets, ts.PeersShed,
		ts.DropsNoPeer+ts.DropsQueueFull, ts.DropsNoPeer, ts.DropsQueueFull)
}

// runTCPNode is the -coordinator-addr mode: one vantage-point node of a
// multi-process fleet. The capture (when given) replays through the
// node's own pipeline; afterwards the node keeps polling for -run-for,
// so its snapshots, heartbeats, and fallback/recovery transitions stay
// observable on /health while a smoke test kills and restarts the
// coordinator around it.
func runTCPNode(cfg accturbo.Config, src *captureStream) {
	id := uint32(*nodeID) // main refuses an id past 32 bits
	n, err := accturbo.NewFleetTCP(accturbo.FleetTCPConfig{
		CoordinatorAddr: *coordAddr,
		NodeID:          id,
		Node:            cfg,
	})
	if err != nil {
		fatal(1, err)
	}
	defer n.Close()
	d := n.Defense()
	fmt.Printf("fleet node %d dialing coordinator at %s\n", id, *coordAddr)
	defer serveAdmin("serving node health on http://%s/health\n", admin.Surface{Health: admin.NodeView(id, n), Metrics: d})()

	// A capture drains far faster than wall-clock poll intervals, so the
	// replay polls every 5,000 packets; without that a short replay would
	// finish before the first poll.
	total := 0
	feed(src, 1, func(at time.Duration, pkts []*packet.Packet) {
		d.Process(at, pkts[0])
		if total++; total%5000 == 0 {
			d.Poll()
			time.Sleep(2 * time.Millisecond)
		}
	})
	// Keep the control loop visibly alive past the capture for -run-for:
	// each tick publishes a snapshot (and applies or ages out fleet
	// deployments), which is what lets /health show fallback and recovery
	// in real time. Three ticks at least let the last window rank and the
	// coordinator's broadcast land.
	for deadline, tick := time.Now().Add(*runFor), 0; tick < 3 || time.Now().Before(deadline); tick++ {
		d.Poll()
		time.Sleep(20 * time.Millisecond)
	}

	h := d.Health()
	st := n.Stats()
	ts := n.TransportStats()
	fmt.Printf("node %d: %d pkts, ranking source %s, degraded=%v, fleet/local polls %d/%d\n",
		id, total, h.Control.RankSource, h.Degraded, st.FleetPolls, st.LocalPolls)
	fmt.Printf("transport: %d dials, %d connects, %d frames out, %d in, %d CRC resets, %d drops (disconnected %d, queue full %d)\n",
		ts.Dials, ts.Connects, ts.FramesOut, ts.FramesIn, ts.CRCResets,
		ts.DropsDisconnected+ts.DropsQueueFull, ts.DropsDisconnected, ts.DropsQueueFull)
}

// runChaosProxy is the -chaos-proxy mode: a deterministic socket-level
// fault injector relaying node connections to the coordinator.
func runChaosProxy(spec faults.Spec) {
	p, err := fleet.NewChaosProxy(*chaosProxyAddr, *chaosProxyTarget, *chaosSeed, spec)
	if err != nil {
		fatal(1, err)
	}
	defer p.Close()
	fmt.Printf("chaos proxy on %s -> %s (seed %d, spec %q)\n", p.Addr(), *chaosProxyTarget, *chaosSeed, spec.String())
	waitRunFor()
	st := p.Stats()
	fmt.Printf("chaos proxy: %d connections, %d bytes forwarded, %d corrupted, %d resets, %d delays\n",
		st.Connections, st.BytesForwarded, st.BytesCorrupted, st.ResetsInjected, st.DelaysInjected)
}
