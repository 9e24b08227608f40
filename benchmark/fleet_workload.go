package main

import (
	"fmt"
	"sort"
	"time"

	"accturbo"
	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/fleet"
	"accturbo/internal/traffic"
)

const (
	fleetNodes = 2
	// fleetFeed packets go into a node before each of its rounds, so
	// every published snapshot ranks a non-empty window.
	fleetFeed = 32
	// A round whose deploy has not applied by then counts as failed: the
	// frame was lost. A stalled VM can hold one round for tens of
	// milliseconds (1 in 600 k exceeded 50 ms here); that is slow, shows
	// in the p99.9, and is not a failure.
	fleetRoundLimit = time.Second
	// fleetSlice is how many packets of cicddos_mix the nodes are pre-fed.
	fleetSlice = 20_000
)

// fleetRig is one coordinator and fleetNodes nodes in this process,
// talking over 127.0.0.1 — loopback, not a real link.
type fleetRig struct {
	coord *accturbo.FleetTCPCoordinator
	nodes []*accturbo.FleetTCPNode
	pkts  []traffic.TimedPacket
	next  int
}

func (r *fleetRig) close() {
	for _, n := range r.nodes {
		n.Close()
	}
	if r.coord != nil {
		r.coord.Close()
	}
}

// fleetConfig is defenseConfig with the control loop parked: the poll
// interval is an hour, so only the benchmark polls, and nothing reseeds
// the clusters between rounds.
func fleetConfig() accturbo.Config {
	cfg := defenseConfig()
	cfg.PollInterval = eventsim.FromDuration(time.Hour)
	cfg.DeployDelay = eventsim.Millisecond
	cfg.ReseedInterval = 0
	return cfg
}

// waitFor polls ok() until it holds or the limit passes, sleeping 1 µs
// between reads. It must not spin on runtime.Gosched: on two threads a
// yielding spinner keeps the scheduler from ever reaching the network
// poller, and every frame then waits for sysmon's 10 ms backstop (the
// round trip reads 4 ms instead of 70 µs).
func waitFor(limit time.Duration, ok func() bool) bool {
	for t0 := time.Now(); !ok(); {
		if time.Since(t0) > limit {
			return false
		}
		time.Sleep(time.Microsecond)
	}
	return true
}

// newFleetRig starts the fleet, waits for both links, pre-feeds each
// node half of pkts and polls until both rank from the fleet.
func newFleetRig(pkts []traffic.TimedPacket, c *setupClock) (*fleetRig, error) {
	cfg := fleetConfig()
	r := &fleetRig{pkts: pkts}
	var err error
	if r.coord, err = accturbo.NewFleetTCPCoordinator(accturbo.FleetTCPCoordinatorConfig{
		ListenAddr: "127.0.0.1:0", Node: cfg,
	}); err != nil {
		return nil, err
	}
	for id := uint32(1); id <= fleetNodes; id++ {
		n, err := accturbo.NewFleetTCP(accturbo.FleetTCPConfig{
			CoordinatorAddr: r.coord.Addr(), NodeID: id, Node: cfg,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	for _, n := range r.nodes {
		if !waitFor(5*time.Second, n.Connected) {
			r.close()
			return nil, fmt.Errorf("fleet node never connected to %s", r.coord.Addr())
		}
	}
	for i, tp := range pkts {
		c.lapEvery(i)
		r.nodes[i%fleetNodes].Defense().Process(0, tp.Pkt)
	}
	c.lap()
	onFleet := func() bool {
		for _, n := range r.nodes {
			if n.Defense().Health().Control.RankSource != "fleet" {
				return false
			}
		}
		return true
	}
	for i := 0; !onFleet(); i++ {
		if i == 100 {
			r.close()
			return nil, fmt.Errorf("nodes still on local fallback after %d warm-up rounds", i)
		}
		r.round(i % fleetNodes)
	}
	return r, nil
}

// settled reports whether every node has applied the coordinator's
// newest broadcast. The coordinator only broadcasts to nodes that have
// reported, so one that has yet to publish is not waited for.
func (r *fleetRig) settled() bool {
	epoch := r.coord.Stats().Epoch
	for _, n := range r.nodes {
		if s := n.Stats(); s.Published > 0 && s.Epoch != epoch {
			return false
		}
	}
	return true
}

// round is one closed-loop operation on node i: feed it a few packets,
// let earlier broadcasts settle, then time Poll() → this node's epoch
// advances (snapshot encoded, sent, merged, ranked, deploy sent back,
// decoded, applied). It also returns how long the Poll call itself took.
func (r *fleetRig) round(i int) (rtt, poll time.Duration, ok bool) {
	n := r.nodes[i]
	for k := 0; k < fleetFeed; k++ {
		n.Defense().Process(0, r.pkts[r.next%len(r.pkts)].Pkt)
		r.next++
	}
	waitFor(fleetRoundLimit, r.settled)
	prev := n.Stats().Epoch
	t0 := time.Now()
	n.Defense().Poll()
	poll = time.Since(t0)
	ok = waitFor(fleetRoundLimit, func() bool { return n.Stats().Epoch > prev })
	return time.Since(t0), poll, ok
}

func runFleetWorkload(rc runConfig) (*result, *tracer, error) {
	res := newResult("fleet_loopback", rc)

	// Set-up: a slice of cicddos_mix, the fleet up and ranking globally.
	var rig *fleetRig
	var clock setupClock
	for rc.moreSetups(&clock) {
		if rig != nil {
			rig.close()
		}
		clock.begin()
		src, _ := cicddosSource(rc.seed, rc.scale)
		pkts := collect(traffic.Limit(src, fleetSlice), &clock)
		dg := newDigest()
		for _, tp := range pkts {
			dg.add(tp)
		}
		var err error
		if rig, err = newFleetRig(pkts, &clock); err != nil {
			return nil, nil, err
		}
		clock.end()
		res.inputDigest(dg.String())
	}
	defer rig.close()
	res.Metrics["setup_s"] = clock.seconds()

	var tr *tracer
	if rc.trace {
		tr = newTracer("fleet_loopback")
	}
	// Rounds build on each other's state, so there is no identical piece
	// to fold as quietPass does: rate and latency are the medians over the
	// repetitions. (The quietest of 36 half-second phases was tried: its
	// median round trip is 29 µs in a calm hour and 36–41 µs in a busy one,
	// no steadier than the middle phase's 33–44 µs, and it spread 9 % over
	// ten runs where the middle one spread 2–3 %.)
	phase := secs(rc.seconds / float64(rc.reps))
	var rate, p50, p99, p999, step []float64
	rtts := make([]int64, 0, 1<<16)
	polls := make([]int64, 0, 1<<16)
	rounds := 0
	for rep := 0; rep < rc.reps; rep++ {
		tr.setRep(rep)
		rtts, polls = rtts[:0], polls[:0]
		inSpan := 0
		tr.begin("fleet.rounds")
		for begin := time.Now(); time.Since(begin) < phase || len(rtts) == 0; rounds++ {
			rtt, poll, ok := rig.round(rounds % fleetNodes)
			res.Attempted++
			if !ok {
				res.Failed++
			}
			rtts, polls = append(rtts, rtt.Nanoseconds()), append(polls, poll.Nanoseconds())
			if inSpan++; inSpan == 1024 {
				tr.end(inSpan)
				tr.begin("fleet.rounds")
				inSpan = 0
			}
		}
		tr.end(inSpan)
		sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
		// Closed loop, one round at a time: a caller that waits for each
		// deploy completes 1 / (round trip) rounds a second. The round
		// trip taken is the interquartile mean: about one round in a
		// hundred waits out a stall of the VM (milliseconds against a
		// 45 µs median), and their share swings the plain mean by 3x
		// between runs. The stalls are the p99 and p99.9.
		var sum int64
		mid := rtts[len(rtts)/4 : len(rtts)-len(rtts)/4]
		for _, v := range mid {
			sum += v
		}
		rate = append(rate, float64(len(mid))/(float64(sum)/1e9)/1e6)
		sort.Slice(polls, func(i, j int) bool { return polls[i] < polls[j] })
		p50, p99, p999 = append(p50, percentile(rtts, 0.50)), append(p99, percentile(rtts, 0.99)), append(p999, percentile(rtts, 0.999))
		step = append(step, percentile(polls, 0.50)/1e3)
	}
	res.Metrics["throughput_mops"] = median(rate)
	res.Metrics["latency_p50_ns"] = median(p50)
	res.Metrics["latency_p99_ns"] = median(p99)
	res.Metrics["latency_p999_ns"] = median(p999)
	res.Metrics["core.step_us"] = median(step)
	res.Digests["rounds"] = fmt.Sprint(rounds)

	// Output checks and boundary counters.
	var drops, crc, bad uint64
	cs := rig.coord.TransportStats()
	drops, crc = cs.DropsNoPeer+cs.DropsQueueFull, cs.CRCResets
	for _, n := range rig.nodes {
		ts := n.TransportStats()
		drops += ts.DropsDisconnected + ts.DropsQueueFull
		crc += ts.CRCResets
		bad += n.Stats().BadDeploys
		src := n.Defense().Health().Control.RankSource
		res.check("fleet.rank_source", src == "fleet", "node ranks from %q", src)
	}
	res.check("fleet.clean_wire", bad == 0 && crc == 0, "%d bad deploys, %d CRC resets", bad, crc)
	res.Metrics["fleet.queue_drops"] = float64(drops)
	res.Metrics["fleet.crc_resets"] = float64(crc)
	res.Metrics["fleet.bad_deploys"] = float64(bad)

	if rc.trace {
		fleetProbes(rig, tr, res)
	}
	res.finish()
	return res, tr, nil
}

// fleetProbes times the codec and the coordinator's merge-and-rank alone
// on the fleet's own snapshots. What is left of the median round trip
// after the step, the codec and the merge is the TCP transport.
func fleetProbes(rig *fleetRig, tr *tracer, res *result) {
	const calls = 2000
	cfg := fleetConfig()
	perCall := func(name string, fn func()) float64 {
		tr.begin(name)
		for i := 0; i < calls; i++ {
			fn()
		}
		tr.end(calls)
		t, _ := tr.layer(name).perPacket()
		return t
	}
	snaps := make([][]cluster.Info, len(rig.nodes))
	for i, n := range rig.nodes {
		snaps[i] = n.Defense().Clusters()
	}
	snap := &fleet.Snapshot{Node: 1, Seq: 1, Infos: snaps[0]}
	snapFrame := fleet.EncodeSnapshot(snap)
	dec := rig.coord.LastGlobalDecision()
	deploy := &fleet.Deploy{Epoch: 1, QueueOf: dec.QueueOf, Rank: dec.Rank}
	deployFrame := fleet.EncodeDeploy(deploy)

	m := res.Metrics
	m["fleet.snapshot_bytes"] = float64(len(snapFrame))
	m["fleet.deploy_bytes"] = float64(len(deployFrame))
	m["fleet.encode_snapshot_ns"] = perCall("fleet.encode_snapshot", func() { fleet.EncodeSnapshot(snap) })
	m["fleet.decode_snapshot_ns"] = perCall("fleet.decode_snapshot", func() {
		if _, err := fleet.DecodeSnapshot(snapFrame); err != nil {
			panic(err)
		}
	})
	m["fleet.encode_deploy_ns"] = perCall("fleet.encode_deploy", func() { fleet.EncodeDeploy(deploy) })
	m["fleet.decode_deploy_ns"] = perCall("fleet.decode_deploy", func() {
		if _, err := fleet.DecodeDeploy(deployFrame); err != nil {
			panic(err)
		}
	})
	slots := cfg.Clustering.MaxClusters
	prev := make([]int, slots)
	m["fleet.merge_rank_us"] = perCall("fleet.merge_rank", func() {
		merged := cluster.MergeSnapshots(cfg.Clustering.Distance, snaps...)
		core.RankDecision(cfg.Ranking, merged, slots, cfg.NumQueues, prev, 0, 0)
	}) / 1e3
	m["cluster.snapshot_us"] = perCall("cluster.snapshot", func() { rig.nodes[0].Defense().Clusters() }) / 1e3
	// The step already contains the snapshot encode.
	m["fleet.transport_self_us"] = m["latency_p50_ns"]/1e3 - m["core.step_us"] - m["fleet.merge_rank_us"] -
		(m["fleet.decode_snapshot_ns"]+m["fleet.encode_deploy_ns"]+m["fleet.decode_deploy_ns"])/1e3
}
