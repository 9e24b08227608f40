// Command accturbo-defend is the operator-facing front end (§10) of the
// library: it runs the public Defense pipeline over a raw-IP pcap (see
// cmd/trafficgen) and reports, per packet or per aggregate, how
// ACC-Turbo would schedule the traffic. The capture is memory-mapped
// once and read through traffic.PcapSource in every mode: capture time
// counts from the first record's second, so a tcpdump capture stamped
// with wall-clock time replays like one written from zero, and a frame
// that is not IPv4 is skipped and counted on stderr. One invocation runs
// one mode, and each mode parses only the flags it reads (MODE -h lists
// them), so a flag of another mode is a usage error:
//
//	accturbo-defend -in X            the deterministic pipeline, on capture time
//	accturbo-defend realtime -in X   the pipeline on the wall clock, in -shards shards
//	accturbo-defend replay -in X     raw frames through the lock-free ingest lane, in Mpps
//	accturbo-defend fleet -in X      -nodes pipelines under one coordinator on the simulated link
//	accturbo-defend coordinator      the multi-process fleet's ranking coordinator, on -listen
//	accturbo-defend node             a node of it: dials -coordinator, and ranks locally without it
//	accturbo-defend relay            a seeded socket-level chaos relay between them
//	accturbo-defend plan             the relay's per-connection fault schedule, without a socket
//
// -metrics-addr serves the mode's internal/admin surface, and -fault-spec
// with -chaos-seed injects deterministic faults (internal/faults); a mode
// refuses a clause it has no place for. For example:
//
//	accturbo-defend -in day.pcap -chaos-seed 7 -fault-spec 'drop:p=0.01;stall:at=5s,for=2s' -fail-open-after 3s
//	accturbo-defend -restore day.snap -in next.pcap -snapshot-out next.snap -victims 8
//	accturbo-defend node -in day.pcap -coordinator :7200 -id 1 -run-for 30s
//	accturbo-defend relay -listen :7200 -target :7100 -chaos-seed 7 -fault-spec 'stream:corrupt=4096'
package main

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"accturbo"
	"accturbo/internal/admin"
	"accturbo/internal/faults"
	"accturbo/internal/fleet"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
	"accturbo/internal/traffic"
)

// The flags' values; a mode's flag set declares those the mode reads.
var (
	in, verdictsOut, metricsAddr, faultSpec, cpuProfile, restorePath, snapshotOut string
	listen, target, coordAddr                                                     string
	clusters, pollMs, reseedMs, shards, ingestQueue, victimsK                     int
	victimWindowMs, loops, nodes, nodeID, conns                                   int
	chaosSeed                                                                     uint64
	failOpenAfter, runFor                                                         time.Duration
	coordinator                                                                   bool
)

// A mode is one way to run the command: its usage line, the flags it
// reads, the string flags it cannot run without, and its run.
type mode struct {
	usage string
	flags func(fs *flag.FlagSet)
	need  []string
	run   func(fs *flag.FlagSet)
}

// modes are the command's modes by name; "" is the bare command.
var modes = map[string]mode{
	"": {"-in X [flags], or accturbo-defend MODE [flags] with MODE one of realtime, replay, fleet, coordinator, node, relay, plan",
		func(fs *flag.FlagSet) { singleFlags(fs); reportFlags(fs) }, nil, func(fs *flag.FlagSet) { runSingle(fs, "") }},
	"realtime": {"-in X [-shards N] [flags]", func(fs *flag.FlagSet) {
		singleFlags(fs)
		reportFlags(fs)
		shardFlags(fs)
	}, nil, func(fs *flag.FlagSet) { runSingle(fs, "realtime") }},
	"replay": {"-in X [-loops N] [flags]", func(fs *flag.FlagSet) {
		singleFlags(fs)
		shardFlags(fs)
		fs.IntVar(&ingestQueue, "ingest-queue", 8192, "ingest ring capacity (frames; /health reports it as ingest_capacity)")
		fs.IntVar(&loops, "loops", 1, "passes over the capture")
	}, []string{"in"}, func(fs *flag.FlagSet) { runSingle(fs, "replay") }},
	"fleet": {"-in X [-nodes N] [flags]", func(fs *flag.FlagSet) {
		pipelineFlags(fs)
		faultFlags(fs, false)
		fs.IntVar(&nodes, "nodes", 3, "in-process fleet nodes; the capture is partitioned across them by source IP hash")
		fs.BoolVar(&coordinator, "coordinator", true, "keep the ranking coordinator reachable; false starts the fleet partitioned, so every node runs on its sticky local fallback ranking")
		fs.DurationVar(&runFor, "run-for", 0, "keep serving /health this long after the report")
	}, []string{"in"}, func(*flag.FlagSet) { runFleet() }},
	"coordinator": {"-listen A [flags]", func(fs *flag.FlagSet) {
		adminFlags(fs)
		fs.StringVar(&listen, "listen", "", "TCP address the nodes dial")
		fs.DurationVar(&runFor, "run-for", 0, "run this long, then print the counters and exit (0 = until killed)")
	}, []string{"listen"}, func(*flag.FlagSet) { runTCPCoordinator() }},
	"node": {"-coordinator A [-id N] [-in X] [flags]", func(fs *flag.FlagSet) {
		pipelineFlags(fs)
		faultFlags(fs, false)
		fs.StringVar(&coordAddr, "coordinator", "", "TCP address of the coordinator, or of a relay in front of it")
		fs.IntVar(&nodeID, "id", 1, "this node's fleet id (unique per fleet)")
		fs.DurationVar(&runFor, "run-for", 0, "keep polling this long after the capture drains")
	}, []string{"coordinator"}, func(*flag.FlagSet) { runTCPNode() }},
	"relay": {"-listen A -target T -fault-spec 'stream:...' [flags]", func(fs *flag.FlagSet) {
		faultFlags(fs, true)
		fs.StringVar(&listen, "listen", "", "TCP address the nodes dial")
		fs.StringVar(&target, "target", "", "TCP address the relay forwards to, usually the coordinator's")
		fs.DurationVar(&runFor, "run-for", 0, "relay this long, then print the counters and exit (0 = until killed)")
	}, []string{"listen", "target"}, func(*flag.FlagSet) { runChaosProxy() }},
	"plan": {"-conns N -fault-spec 'stream:...' [-chaos-seed S]", func(fs *flag.FlagSet) {
		faultFlags(fs, true)
		fs.IntVar(&conns, "conns", 1, "print the relay's fault schedule of the first 64 KiB of each direction for this many connections")
	}, nil, func(*flag.FlagSet) { fmt.Print(parseFaults(true).Stream.Plan(chaosSeed, conns)) }},
}

// The flag helpers declare the groups of flags that several modes read.
// adminFlags holds all of a pipeline that a coordinator reads.
func adminFlags(fs *flag.FlagSet) {
	fs.IntVar(&clusters, "clusters", 4, "number of clusters / priority queues")
	fs.StringVar(&metricsAddr, "metrics-addr", "", "serve the admin surface on this address (e.g. :9100)")
}

func pipelineFlags(fs *flag.FlagSet) {
	adminFlags(fs)
	fs.StringVar(&in, "in", "", "input pcap (raw-IP linktype)")
	fs.IntVar(&pollMs, "poll", 250, "controller poll interval (ms)")
	fs.IntVar(&reseedMs, "reseed", 1000, "cluster re-initialization period (ms, 0 = never)")
	fs.DurationVar(&failOpenAfter, "fail-open-after", 0, "watchdog staleness bound: revert to uniform priority when no decision deploys for this long (0 = disabled)")
}

func faultFlags(fs *flag.FlagSet, relay bool) {
	clauses := "drop, dup, corrupt and stall clauses, e.g. 'drop:p=0.01;stall:at=5s,for=2s'"
	if relay {
		clauses = "a stream clause, e.g. 'stream:corrupt=4096,reset=32768,delay=8192,for=5ms'"
	}
	fs.StringVar(&faultSpec, "fault-spec", "", "fault plan (see internal/faults): "+clauses)
	fs.Uint64Var(&chaosSeed, "chaos-seed", 0, "seed of every -fault-spec fault")
}

func singleFlags(fs *flag.FlagSet) {
	pipelineFlags(fs)
	fs.StringVar(&restorePath, "restore", "", "restore defense state from this snapshot file before processing (see -snapshot-out)")
	fs.StringVar(&snapshotOut, "snapshot-out", "", "write a defense state snapshot to this file after the capture drains")
	fs.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the processing loop to this file")
}

func reportFlags(fs *flag.FlagSet) {
	faultFlags(fs, false)
	fs.StringVar(&verdictsOut, "verdicts", "", "optional CSV of per-packet verdicts")
	fs.IntVar(&victimsK, "victims", 0, "track the top-K victim destination aggregates per window through the heavy-keeper detector (0 = off, at most 4096; adds GET /victims to -metrics-addr)")
	fs.IntVar(&victimWindowMs, "victim-window", 1000, "victim-detection window length (ms of capture time; needs -victims)")
}

func shardFlags(fs *flag.FlagSet) {
	fs.IntVar(&shards, "shards", 1, "data-plane clustering shards")
}

func fatal(code int, v ...any) {
	fmt.Fprintln(os.Stderr, v...)
	os.Exit(code)
}

// flagSet is the named mode's flag set. It prints nothing itself: main
// reports a refusal in one line, and -h.
func flagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(strings.TrimSpace("accturbo-defend "+name), flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	modes[name].flags(fs)
	return fs
}

func main() {
	name, args := "", os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	m, ok := modes[name]
	if !ok {
		fatal(2, fmt.Sprintf("accturbo-defend: unknown mode %q (see accturbo-defend -h)", name))
	}
	fs := flagSet(name)
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		fmt.Fprintf(os.Stderr, "usage: %s %s\n", fs.Name(), m.usage)
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		return
	case err != nil:
		fatal(2, fs.Name()+":", err)
	case fs.NArg() > 0:
		fatal(2, fmt.Sprintf("%s: unexpected argument %q", fs.Name(), fs.Arg(0)))
	}
	for _, f := range m.need {
		if fs.Lookup(f).Value.String() == "" {
			fatal(2, fmt.Sprintf("%s: missing -%s", fs.Name(), f))
		}
	}
	checkBounds(fs)
	m.run(fs)
}

// checkBounds refuses a value outside its flag's range, for each bounded
// flag fs declares, and a negative -run-for.
func checkBounds(fs *flag.FlagSet) {
	const ms, most = math.MaxInt64 / int64(time.Millisecond), math.MaxInt64 // ms: the most a time.Duration holds
	for _, b := range []struct {
		name   string
		lo, hi int64
	}{{"victims", 0, most}, {"shards", 1, most}, {"ingest-queue", 1, most}, {"loops", 1, most},
		{"nodes", 1, most}, {"conns", 1, most}, {"poll", 0, ms}, {"reseed", 0, ms}, {"victim-window", 1, ms}, {"id", 1, math.MaxUint32}} {
		if f := fs.Lookup(b.name); f != nil {
			switch v := int64(f.Value.(flag.Getter).Get().(int)); {
			case v < b.lo:
				fatal(2, fmt.Sprintf("%s: -%s %d is below %d", fs.Name(), b.name, v, b.lo))
			case v > b.hi:
				fatal(2, fmt.Sprintf("%s: -%s %d is above %d", fs.Name(), b.name, v, b.hi))
			}
		}
	}
	if runFor < 0 {
		fatal(2, fmt.Sprintf("%s: -run-for %v is negative", fs.Name(), runFor))
	}
}

// parseFaults parses -fault-spec, refusing a clause the mode has no place
// for: a capture has no byte stream nor a simulated link to flap.
func parseFaults(relay bool) faults.Spec {
	spec, err := faults.ParseSpec(faultSpec)
	if err != nil {
		fatal(2, err)
	}
	notStream := spec
	notStream.Stream = faults.StreamSpec{}
	switch {
	case relay && !notStream.Empty():
		fatal(2, "-fault-spec: the chaos relay injects stream clauses only, and has no packets or clock to fault")
	case !relay && spec.Stream != faults.StreamSpec{}:
		fatal(2, "-fault-spec: stream clauses need the chaos relay (the relay and plan modes)")
	case !relay && len(spec.Flaps) > 0:
		fatal(2, "-fault-spec: flap clauses need a simulated link, and a capture has none")
	}
	return spec
}

// pipeline is the Config the pipeline flags describe and the stream of
// -in, when given, with -fault-spec's packet faults. Stall windows wrap
// the control loop's clock (capture time, or wall time since startup),
// never the watchdog's.
func pipeline() (accturbo.Config, *captureStream) {
	src := &captureStream{}
	cfg := accturbo.HardwareConfig()
	if spec := parseFaults(false); !spec.Empty() {
		src.injector = faults.New(chaosSeed, spec)
		cfg.WrapClock = src.injector.ClockWrapper()
	}
	if in != "" {
		var err error
		if src.frames, err = pcap.OpenMapped(in); err != nil {
			fatal(1, err)
		}
		src.capture = traffic.NewPcapSource(src.frames)
	}
	cfg.Clustering.MaxClusters, cfg.Clustering.SliceInit = clusters, true
	cfg.NumQueues, cfg.Shards = clusters, shards
	cfg.PollInterval = accturbo.FromDuration(time.Duration(pollMs) * time.Millisecond)
	cfg.DeployDelay = cfg.PollInterval / 5
	if reseedMs > 0 {
		cfg.ReseedInterval = accturbo.FromDuration(time.Duration(reseedMs) * time.Millisecond)
	}
	cfg.FailOpenAfter = accturbo.FromDuration(failOpenAfter)
	return cfg, src
}

// serveAdmin mounts a mode's admin surface on -metrics-addr and returns
// the func that stops it; without the flag both are no-ops.
func serveAdmin(banner string, s admin.Surface) (stop func()) {
	if metricsAddr == "" {
		return func() {}
	}
	srv, err := admin.Serve(metricsAddr, banner, s)
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

// runSingle runs one Defense over the capture, fed through Process on
// capture time (the bare command) or on the wall clock (realtime), or by
// the wire-speed replay lane (replay), then prints the operator report.
func runSingle(fs *flag.FlagSet, mode string) {
	live, replay := mode != "", mode == "replay"
	cfg, src := pipeline()
	window := false
	fs.Visit(func(f *flag.Flag) { window = window || f.Name == "victim-window" })
	switch {
	case in == "" && restorePath == "":
		fatal(2, "missing -in capture (or -restore snapshot)")
	case window && victimsK == 0:
		fatal(2, "-victim-window needs -victims")
	case (restorePath != "" || snapshotOut != "") && !cfg.Clustering.Deployed():
		fatal(2, "-snapshot-out and -restore need the deployed clustering configuration: at most 64 -clusters")
	}
	if src.frames != nil {
		defer src.frames.Close()
	}

	newDefense := accturbo.NewDefense
	if live {
		newDefense = accturbo.NewRealTimeDefense
	}
	d, err := newDefense(cfg)
	if err != nil {
		fatal(2, err)
	}
	defer d.Close()

	// Restore lands before any traffic (a snapshot refuses a pipeline with
	// history), so the process resumes with the deployed decision.
	if restorePath != "" {
		snap, err := os.ReadFile(restorePath)
		if err == nil {
			err = d.RestoreState(bytes.NewReader(snap))
		}
		if err != nil {
			fatal(1, "restore:", err)
		}
		fmt.Printf("restored state from %s: %d packets observed, %d deployments, runtime config %s/%v poll\n",
			restorePath, d.PacketsObserved(), d.Deployments(), d.Runtime().Ranking, d.Runtime().PollInterval.Duration())
	}

	surface, banner := pipelineSurface(d, live)
	var victims *victimTap
	if victimsK > 0 {
		if victims, err = newVictimTap(victimsK, time.Duration(victimWindowMs)*time.Millisecond); err != nil {
			fatal(2, err)
		}
		// The tap sees every packet the capture stream feeds.
		src.tap = victims.observe
		surface.Victims = victims.vd
	}
	defer serveAdmin(banner, surface)()

	var vf *os.File
	if verdictsOut != "" {
		if vf, err = os.Create(verdictsOut); err != nil {
			fatal(1, err)
		}
		defer vf.Close()
		fmt.Fprintln(vf, "time_us,src,dst,proto,sport,dport,len,cluster,queue,distance")
	}
	deliver := func(at time.Duration, p *packet.Packet) {
		v := d.Process(at, p)
		if vf != nil {
			fmt.Fprintf(vf, "%d,%s,%s,%d,%d,%d,%d,%d,%d,%.0f\n",
				at.Microseconds(), p.SrcIP, p.DstIP, uint8(p.Protocol),
				p.SrcPort, p.DstPort, p.Length, v.Cluster, v.Queue, v.Distance)
		}
	}

	if cpuProfile != "" {
		pf, err := os.Create(cpuProfile)
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
	start := time.Now()
	var n int
	if replay {
		n = feedReplay(d, src.frames)
	} else {
		n = feed(src, deliver)
	}
	// Close drains the ingest stage (if enabled) so the routed counters
	// below are complete; the deferred Close becomes a no-op.
	d.Close()
	elapsed := time.Since(start)
	if snapshotOut != "" {
		var snap bytes.Buffer
		err := d.SaveState(&snap)
		if err == nil {
			err = os.WriteFile(snapshotOut, snap.Bytes(), 0o666)
		}
		if err != nil {
			fatal(1, "snapshot:", err)
		}
		fmt.Printf("state snapshot written to %s\n", snapshotOut)
	}

	if in != "" {
		fmt.Printf("processed %d packets from %s\n", n, in)
	}
	rate := float64(n) / elapsed.Seconds()
	if replay {
		fmt.Printf("replay mode: %d frames over %d pass(es) in %.2fs — %.2f Mpps (%d malformed rejected, %d backpressure retries)\n",
			n, loops, elapsed.Seconds(), rate/1e6, d.IngestRejected(), d.IngestShed())
	}
	if mode == "realtime" {
		fmt.Printf("real-time mode: %d shards, %.0f pkts/s wall, %d deployments, %d observed\n",
			d.Shards(), rate, d.Deployments(), d.PacketsObserved())
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
		fmt.Printf("  queue %d (priority %d): %8d pkts (%5.1f%%)\n", q, q, c, 100*float64(c)/float64(max(n, 1)))
	}
	if vf != nil {
		fmt.Printf("\nper-packet verdicts written to %s\n", verdictsOut)
	}
}

// runFleet is the fleet mode. Each node sees its ingress slice of the
// capture, as vantage points see a distributed-source attack, on one
// virtual clock that follows capture time, so the report is deterministic.
func runFleet() {
	cfg, src := pipeline()
	f, err := accturbo.NewFleet(accturbo.FleetConfig{Nodes: nodes, Node: cfg})
	if err != nil {
		fatal(2, err)
	}
	defer f.Close()
	f.SetLink(coordinator)
	defer serveAdmin("serving fleet health on http://%s/health\n", admin.Surface{Health: admin.FleetView(f)})()

	perNode := make([]int, nodes)
	total := feed(src, func(at time.Duration, p *packet.Packet) {
		h := fnv.New32a()
		h.Write(p.SrcIP[:])
		n := int(h.Sum32() % uint32(nodes))
		f.Node(n).Process(at, p)
		perNode[n]++
	})

	fmt.Printf("fleet mode: %d nodes, %d packets partitioned by source IP\n", nodes, total)
	if src.injector != nil {
		fmt.Println(src.chaosSummary())
	}
	for n := 0; n < f.Nodes(); n++ {
		h, st := f.Node(n).Health(), f.NodeStats(n)
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
	time.Sleep(runFor)
}

// waitRunFor blocks for -run-for, or forever when it is zero (the
// process is expected to be killed — the smoke-test shape).
func waitRunFor() {
	if runFor > 0 {
		time.Sleep(runFor)
		return
	}
	select {}
}

// runTCPCoordinator is the coordinator mode: the standalone ranking
// coordinator of a multi-process fleet.
func runTCPCoordinator() {
	cfg := accturbo.HardwareConfig() // the fleet's shape reads its slots and queues only
	cfg.Clustering.MaxClusters, cfg.NumQueues = clusters, clusters
	c, err := accturbo.NewFleetTCPCoordinator(accturbo.FleetTCPCoordinatorConfig{ListenAddr: listen, Node: cfg})
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

// runTCPNode is the node mode. The capture, when given, replays through
// the node's own pipeline; afterwards the node keeps polling for -run-for,
// so its fallback and recovery stay observable on /health while a smoke
// test kills and restarts the coordinator around it.
func runTCPNode() {
	cfg, src := pipeline()
	id := uint32(nodeID) // checkBounds refuses an id past 32 bits
	n, err := accturbo.NewFleetTCP(accturbo.FleetTCPConfig{CoordinatorAddr: coordAddr, NodeID: id, Node: cfg})
	if err != nil {
		fatal(1, err)
	}
	defer n.Close()
	d := n.Defense()
	fmt.Printf("fleet node %d dialing coordinator at %s\n", id, coordAddr)
	defer serveAdmin("serving node health on http://%s/health\n", admin.Surface{Health: admin.NodeView(id, n), Metrics: d})()

	// A capture drains far faster than wall-clock poll intervals, so the
	// replay polls every 5,000 packets.
	total := 0
	feed(src, func(at time.Duration, p *packet.Packet) {
		d.Process(at, p)
		if total++; total%5000 == 0 {
			d.Poll()
			time.Sleep(2 * time.Millisecond)
		}
	})
	// Each tick publishes a snapshot and applies or ages out fleet
	// deployments, so /health shows fallback and recovery as they happen;
	// three at least let the last window rank and the broadcast land.
	for deadline, tick := time.Now().Add(runFor), 0; tick < 3 || time.Now().Before(deadline); tick++ {
		d.Poll()
		time.Sleep(20 * time.Millisecond)
	}

	h, st, ts := d.Health(), n.Stats(), n.TransportStats()
	fmt.Printf("node %d: %d pkts, ranking source %s, degraded=%v, fleet/local polls %d/%d\n",
		id, total, h.Control.RankSource, h.Degraded, st.FleetPolls, st.LocalPolls)
	fmt.Printf("transport: %d dials, %d connects, %d frames out, %d in, %d CRC resets, %d drops (disconnected %d, queue full %d)\n",
		ts.Dials, ts.Connects, ts.FramesOut, ts.FramesIn, ts.CRCResets,
		ts.DropsDisconnected+ts.DropsQueueFull, ts.DropsDisconnected, ts.DropsQueueFull)
}

// runChaosProxy is the relay mode: a deterministic socket-level fault
// injector relaying node connections to the coordinator.
func runChaosProxy() {
	spec := parseFaults(true)
	p, err := fleet.NewChaosProxy(listen, target, chaosSeed, spec)
	if err != nil {
		fatal(1, err)
	}
	defer p.Close()
	fmt.Printf("chaos proxy on %s -> %s (seed %d, spec %q)\n", p.Addr(), target, chaosSeed, spec.String())
	waitRunFor()
	st := p.Stats()
	fmt.Printf("chaos proxy: %d connections, %d bytes forwarded, %d corrupted, %d resets, %d delays\n",
		st.Connections, st.BytesForwarded, st.BytesCorrupted, st.ResetsInjected, st.DelaysInjected)
}
