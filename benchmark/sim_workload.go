package main

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/jaqen"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// simTurboConfig is ACC-Turbo as the §2 pulse-wave comparison runs it:
// ten slice-initialised clusters over the destination bytes that tell
// the aggregates apart, 100 ms polls, 50 ms deploys, 1 s reseeds.
func simTurboConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Clustering = cluster.DefaultConfig(10, packet.FeatureSet{
		packet.FDstIPByte1, packet.FDstIPByte2, packet.FDstIPByte3,
	})
	cfg.Clustering.SliceInit = true
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 50 * eventsim.Millisecond
	cfg.ReseedInterval = eventsim.Second
	return cfg
}

// simSlice is the virtual time one span (and one latency sample)
// covers. At the full-size link rate the densest slice, inside the
// 40-byte SYN pulse, holds about 2400 packets — under the 4096 a span
// may cover — and a slice of benign traffic alone about thirty.
const simSlice = 25 * eventsim.Millisecond

// simPass is one pass of the pulse wave through a simulated bottleneck.
type simPass struct {
	packets   uint64
	benignPct float64
	slices    []int64  // wall ns the engine took, one per slice
	counts    []uint64 // packets that arrived, one per slice
}

// perPacket returns the quiet pass's wall ns per simulated packet, one
// value per slice in which packets arrived, in ascending order.
func (q quietPass) perPacket(counts []uint64) []float64 {
	var ns []float64
	for i, t := range q {
		if counts[i] > 0 {
			ns = append(ns, float64(t)/float64(counts[i]))
		}
	}
	sort.Float64s(ns)
	return ns
}

// attachFunc builds the defended port of one pass.
type attachFunc func(eng *eventsim.Engine, link float64, rec *netsim.Recorder) (*netsim.Port, error)

func attachTurbo(eng *eventsim.Engine, link float64, rec *netsim.Recorder) (*netsim.Port, error) {
	port, _, err := core.AttachE(eng, link, rec, simTurboConfig())
	return port, err
}

func attachJaqen(eng *eventsim.Engine, link float64, rec *netsim.Recorder) (*netsim.Port, error) {
	// The buffer holds 100 ms of line rate, as in the experiments.
	port := netsim.NewPort(eng, queue.NewFIFO(max(int(link/80), 10_000)), link, rec)
	_, err := jaqen.AttachE(eng, port, jaqen.DefaultConfig())
	return port, err
}

// newSimPass wires source → replay → port on a fresh engine, with the
// packet pool closing the lifecycle as the experiments do.
func newSimPass(link float64, attach attachFunc) (*eventsim.Engine, *netsim.Recorder, error) {
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	port, err := attach(eng, link, rec)
	if err != nil {
		return nil, nil, err
	}
	src := pulseSource(link)
	pool := packet.NewPool()
	traffic.AttachPool(src, pool)
	port.SetPool(pool)
	netsim.Replay(eng, src, port)
	return eng, rec, nil
}

// runSimPass advances the engine one slice at a time to the end of the
// scenario and on until the port has drained (a minute at most), then
// checks packet conservation at the port.
func runSimPass(name string, link float64, attach attachFunc, tr *tracer, res *result) (simPass, error) {
	var p simPass
	eng, rec, err := newSimPass(link, attach)
	if err != nil {
		return p, err
	}
	arrived := func() uint64 { return rec.ArrivedBenign() + rec.ArrivedMalicious() }
	left := func() uint64 {
		return rec.DeliveredBenignPkts() + rec.DeliveredMaliciousPkts() + rec.DroppedBenign() + rec.DroppedMalicious()
	}
	tr.begin(name)
	for t := simSlice; t <= pulseUntil || (left() < arrived() && t <= pulseUntil+60*eventsim.Second); t += simSlice {
		before := arrived()
		tr.begin("netsim.slice")
		t0 := time.Now()
		eng.RunUntil(t)
		dt := time.Since(t0).Nanoseconds()
		n := arrived() - before
		tr.end(int(n))
		p.slices = append(p.slices, dt)
		p.counts = append(p.counts, n)
	}
	p.packets = arrived()
	tr.end(int(p.packets))
	p.benignPct = rec.BenignDropPercent()

	res.Attempted += p.packets
	res.check("sim.conservation", left() == p.packets && p.packets > 0,
		"%s: arrived %d, delivered+dropped %d", name, p.packets, left())
	return p, nil
}

func runSimWorkload(rc runConfig) (*result, *tracer, error) {
	res := newResult("sim_pulse", rc)
	link := simPulseLink(rc.seed, rc.scale)

	// Set-up: generate every packet once (the input digest) and build
	// both passes.
	var clock setupClock
	for rc.moreSetups(&clock) {
		clock.begin()
		dg := newDigest()
		src := pulseSource(link)
		pool := packet.NewPool()
		traffic.AttachPool(src, pool)
		for tp, ok := src.Next(); ok; tp, ok = src.Next() {
			clock.lapEvery(int(dg.n))
			dg.add(tp)
			pool.Put(tp.Pkt)
		}
		for _, attach := range []attachFunc{attachTurbo, attachJaqen} {
			if _, _, err := newSimPass(link, attach); err != nil {
				return nil, nil, err
			}
		}
		clock.end()
		res.inputDigest(dg.String())
	}
	res.Metrics["setup_s"] = clock.seconds()

	// One repetition is an ACC-Turbo pass and a Jaqen pass. The first
	// tells how long one takes; keep going while another fits. Rate and
	// latency are those of the quiet pass (see quietPass) of each kind.
	var tr *tracer
	if rc.trace {
		tr = newTracer("sim_pulse")
	}
	budget := secs(rc.seconds)
	if rc.trace {
		budget = budget * 2 / 3
	}
	var turbo, jaqenQuiet quietPass
	var first [2]simPass
	reps := 0
	for begin, fits := time.Now(), true; fits; reps++ {
		repStart := time.Now()
		tr.setRep(reps)
		tp, err := runSimPass("sim.turbo_pass", link, attachTurbo, tr, res)
		if err != nil {
			return nil, nil, err
		}
		jp, err := runSimPass("sim.jaqen_pass", link, attachJaqen, tr, res)
		if err != nil {
			return nil, nil, err
		}
		if reps == 0 {
			first = [2]simPass{tp, jp}
		}
		res.check("sim.reproduced",
			tp.benignPct == first[0].benignPct && jp.benignPct == first[1].benignPct &&
				slices.Equal(tp.counts, first[0].counts) && slices.Equal(jp.counts, first[1].counts),
			"pass %d: drops %.6f/%.6f packets %d/%d, first pass %.6f/%.6f %d/%d",
			reps, tp.benignPct, jp.benignPct, tp.packets, jp.packets,
			first[0].benignPct, first[1].benignPct, first[0].packets, first[1].packets)
		turbo.fold(tp.slices)
		jaqenQuiet.fold(jp.slices)
		fits = time.Since(begin)+time.Since(repStart) <= budget
	}
	turboPkts, jaqenPkts := first[0].packets, first[1].packets
	turboTime, jaqenTime := turbo.total(), jaqenQuiet.total()
	sliceNs := turbo.perPacket(first[0].counts)
	q := func(p float64) float64 { return sliceNs[min(int(p*float64(len(sliceNs))), len(sliceNs)-1)] }
	res.Metrics["throughput_mops"] = float64(turboPkts+jaqenPkts) / (turboTime + jaqenTime).Seconds() / 1e6
	res.Metrics["latency_p50_ns"] = q(0.50)
	res.Metrics["latency_p99_ns"] = q(0.99)
	res.Metrics["latency_p999_ns"] = q(0.999)
	res.Metrics["benign_drop_pct"] = first[0].benignPct
	res.Metrics["jaqen.sim_mpps"] = float64(jaqenPkts) / jaqenTime.Seconds() / 1e6
	res.Metrics["jaqen.benign_drop_pct"] = first[1].benignPct
	res.Digests["repetitions"] = fmt.Sprint(reps)

	if rc.trace {
		simProbes(link, float64(turboTime.Nanoseconds())/float64(turboPkts), tr, res)
	}
	res.finish()
	return res, tr, nil
}

// probePackets is how many packets the substrate probes run over.
const probePackets = 1 << 16

// simProbes times the simulator's modules alone: the generator, the
// event engine, the strict-priority qdisc and the per-packet classifier.
// What is left of an ACC-Turbo pass per packet is the port itself.
func simProbes(link, passNs float64, tr *tracer, res *result) {
	perPkt := func(name string) float64 { t, _ := tr.layer(name).perPacket(); return t }

	src := pulseSource(link)
	pool := packet.NewPool()
	traffic.AttachPool(src, pool)
	for drained, done := 0, false; !done && drained < probePackets; {
		tr.begin("traffic.next")
		n := 0
		for ; n < spanBatch; n++ {
			tp, ok := src.Next()
			if !ok {
				done = true
				break
			}
			pool.Put(tp.Pkt)
		}
		tr.end(n)
		drained += n
	}
	res.Metrics["traffic.next_ns"] = perPkt("traffic.next")
	pkts := traffic.Collect(traffic.Limit(pulseSource(link), probePackets))

	// The engine alone: a chain of self-rescheduling events, the shape
	// netsim.Replay and the port's transmit timer give it.
	eng := eventsim.New()
	var chain eventsim.ArgFunc
	chain = func(now eventsim.Time, arg any) { eng.ScheduleArg(now+eventsim.Microsecond, chain, arg) }
	eng.ScheduleArg(0, chain, nil)
	for i := 1; i <= probePackets/spanBatch; i++ {
		tr.begin("eventsim.schedule")
		eng.RunUntil(eventsim.Time(i*spanBatch) * eventsim.Microsecond)
		tr.end(spanBatch)
	}
	res.Metrics["eventsim.schedule_ns"] = perPkt("eventsim.schedule")

	cfg := simTurboConfig()
	prio := queue.NewPriority(cfg.Clustering.MaxClusters, 64<<10, func(_ eventsim.Time, p *packet.Packet) int {
		return int(p.FlowID) % cfg.Clustering.MaxClusters
	})
	dp := core.NewDataplane(cfg, false)
	for lo := 0; lo < len(pkts); lo += spanBatch {
		hi := min(lo+spanBatch, len(pkts))
		tr.begin("queue.enq_deq")
		for _, tp := range pkts[lo:hi] {
			if prio.Enqueue(0, tp.Pkt) == queue.DropNone {
				prio.Dequeue(0)
			}
		}
		tr.end(hi - lo)
		tr.begin("core.classify_pkt")
		for _, tp := range pkts[lo:hi] {
			dp.Classify(tp.Pkt)
		}
		tr.end(hi - lo)
	}
	res.Metrics["queue.enq_deq_ns"] = perPkt("queue.enq_deq")
	res.Metrics["core.classify_pkt_ns"] = perPkt("core.classify_pkt")
	// Each packet costs two events: its arrival and its transmit timer.
	res.Metrics["netsim.port_self_ns"] = passNs - res.Metrics["traffic.next_ns"] -
		2*res.Metrics["eventsim.schedule_ns"] - res.Metrics["queue.enq_deq_ns"] - res.Metrics["core.classify_pkt_ns"]
}
