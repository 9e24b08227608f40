package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"accturbo"
	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
	"accturbo/internal/ring"
)

// runTraceWorkload runs one of benign_diverse, pulse_wave, cicddos_mix:
// two doors over the same packets, so a gain for one use of the
// clusterer that costs the other shows.
func runTraceWorkload(name string, rc runConfig) (*result, *tracer, error) {
	res := newResult(name, rc)
	cfg := defenseConfig()
	withVictims := name == "cicddos_mix"

	// Set-up: generate the input and build both doors, as every run
	// pays it. Repeated, and the quiet set-up reported (see setupClock).
	var in *traceInput
	var clock setupClock
	for rc.moreSetups(&clock) {
		in = nil
		runtime.GC()
		clock.begin()
		src, windows := traceSource(name, rc.seed, rc.scale)
		var err error
		if in, err = buildTrace(src, windows, &clock); err != nil {
			return nil, nil, err
		}
		rt, err := accturbo.NewRealTimeDefenseE(cfg)
		if err != nil {
			return nil, nil, err
		}
		if err := rt.EnableIngest(ringCapacity, 1); err != nil {
			return nil, nil, err
		}
		rt.Close()
		det, err := accturbo.NewDefenseE(cfg)
		if err != nil {
			return nil, nil, err
		}
		det.Close()
		clock.end()
		res.inputDigest(in.digest)
	}
	res.Metrics["setup_s"] = clock.seconds()

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Untraced phases: the end-to-end numbers always come from here.
	seconds, reps := rc.seconds, rc.reps
	if rc.trace {
		seconds, reps = rc.seconds/3, max(1, rc.reps/3)
	}
	run, err := runDoors(in, cfg, withVictims, seconds, reps, nil, res)
	if err != nil {
		return nil, nil, err
	}
	res.Metrics["throughput_mops"] = run.processMpps()
	res.Metrics["wire_mpps"] = run.wireMpps()
	res.Metrics["latency_p50_ns"] = run.latency(0.50)
	res.Metrics["latency_p99_ns"] = run.latency(0.99)
	res.Metrics["latency_p999_ns"] = run.latency(0.999)
	res.Metrics["ingest.shed"] = float64(run.shed)
	res.Metrics["ingest.rejected"] = float64(run.rejected)
	res.Metrics["priority_separation"] = run.last.separation(cfg.NumQueues)
	res.Metrics["cluster.zero_distance_share"] = float64(run.last.zeroDist) / float64(run.last.calls)
	res.Metrics["cluster.new_cluster_share"] = float64(run.last.created) / float64(run.last.calls)
	res.Metrics["core.deployments"] = float64(run.last.deployments)
	if run.last.attackWindows > 0 {
		res.Metrics["victim.listed_window_share"] = float64(run.last.listedWindows) / float64(run.last.attackWindows)
	}
	res.Digests["passes"] = fmt.Sprintf("wire %d (%d took the same turns), sync %d with %d timed calls each",
		run.wirePasses, run.wire().passes, run.syncPasses, len(run.timed))

	var tr *tracer
	if rc.trace {
		tr = newTracer(name)
		traced, err := runDoors(in, cfg, withVictims, seconds, reps, tr, res)
		if err != nil {
			return nil, nil, err
		}
		base := res.Metrics["throughput_mops"]
		res.Metrics["trace.overhead_pct"] = 100 * (base - traced.processMpps()) / base
		if err := parallelWireProbe(in, cfg, secs(seconds/float64(2*reps)), res); err != nil {
			return nil, nil, err
		}
		if err := traceLedger(in, cfg, withVictims, tr, res); err != nil {
			return nil, nil, err
		}
		if err := verdictLatencyProbe(in, cfg, min(time.Second, secs(seconds/3)), res); err != nil {
			return nil, nil, err
		}
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.Metrics["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.finish()
	return res, tr, nil
}

// ledgerPasses is how often the staged ledger walks the trace.
const ledgerPasses = 3

// traceLedger runs every layer of both doors alone, on the same inputs,
// under spans. Per-layer times are span totals divided by packets; the
// ledger then sets the stages against the one-thread wire-door total
// measured untraced.
func traceLedger(in *traceInput, cfg accturbo.Config, withVictims bool, tr *tracer, res *result) error {
	feats := cfg.Clustering.Features
	nf := len(feats)
	m, err := pcap.NewMappedReader(in.image)
	if err != nil {
		return err
	}
	frames := make([][]byte, 0, spanBatch)
	batch := make([]core.FrameFeatures, 0, spanBatch)
	popped := make([]core.FrameFeatures, 256)
	decoded := make([]core.FrameFeatures, 0, len(in.pkts))
	var rejected uint64

	// Wire door, staged: producer (pcap → decode → ring push), then
	// consumer (ring pop → classify), one ≤4096-frame batch at a time.
	for pass := 0; pass < ledgerPasses; pass++ {
		tr.setRep(pass)
		dp := core.NewDataplane(cfg, true)
		rg := ring.New[core.FrameFeatures](ringCapacity)
		decoded = decoded[:0]
		m.Reset()
		for eof := false; !eof; {
			tr.begin("ledger.producer")
			tr.begin("pcap.next_frame")
			frames = frames[:0]
			for len(frames) < spanBatch {
				_, f, err := m.NextFrame()
				if err == io.EOF {
					eof = true
					break
				}
				if err != nil {
					return err
				}
				frames = append(frames, f)
			}
			tr.end(len(frames))

			tr.begin("packet.decode")
			batch = batch[:0]
			for _, f := range frames {
				v, err := packet.ParseFrame(f)
				if err != nil {
					rejected++
					continue
				}
				var ff core.FrameFeatures
				ff.Size = uint32(v.Length())
				v.Features(feats, ff.Vals[:nf])
				batch = append(batch, ff)
			}
			tr.end(len(frames))

			tr.begin("ring.push")
			for i := range batch {
				if !rg.Push(batch[i]) {
					return fmt.Errorf("staged ring full at %d of %d", i, len(batch))
				}
				if i%64 == 63 {
					rg.Publish()
				}
			}
			rg.Publish()
			tr.end(len(batch))
			tr.end(len(frames))
			decoded = append(decoded, batch...)

			tr.begin("ledger.consumer")
			for {
				tr.begin("ring.pop")
				n := rg.PopBatch(popped)
				tr.end(n)
				if n == 0 {
					break
				}
				tr.begin("core.classify")
				dp.ObserveShardFrames(0, popped[:n], nil)
				tr.end(n)
			}
			tr.end(len(batch))
		}
		if dp.Observed() != uint64(len(decoded)) {
			return fmt.Errorf("staged dataplane observed %d of %d", dp.Observed(), len(decoded))
		}
	}

	// The clusterer alone on the decoded vectors, and the sync door's
	// feature extraction alone on the decoded packets.
	var oc *cluster.Online
	var vals [packet.NumFeatures]uint32
	for pass := 0; pass < ledgerPasses; pass++ {
		tr.setRep(pass)
		oc = cluster.NewOnline(cfg.Clustering)
		for lo := 0; lo < len(decoded); lo += spanBatch {
			hi := min(lo+spanBatch, len(decoded))
			tr.begin("cluster.observe")
			for i := lo; i < hi; i++ {
				oc.ObserveFeatures(decoded[i].Vals[:nf], uint64(decoded[i].Size), false)
			}
			tr.end(hi - lo)
		}
		for lo := 0; lo < len(in.pkts); lo += spanBatch {
			hi := min(lo+spanBatch, len(in.pkts))
			tr.begin("packet.extract")
			for i := lo; i < hi; i++ {
				feats.Extract(in.pkts[i].Pkt, vals[:0])
			}
			tr.end(hi - lo)
		}
	}

	perPkt := func(name string) float64 { t, _ := tr.layer(name).perPacket(); return t }
	push, pop := perPkt("ring.push"), perPkt("ring.pop")
	res.Metrics["pcap.next_frame_ns"] = perPkt("pcap.next_frame")
	res.Metrics["packet.decode_ns"] = perPkt("packet.decode")
	res.Metrics["packet.rejected"] = float64(rejected)
	res.Metrics["ring.handoff_ns"] = push + pop
	res.Metrics["cluster.observe_ns"] = perPkt("cluster.observe")
	res.Metrics["core.classify_ns"] = perPkt("core.classify")
	res.Metrics["core.classify_self_ns"] = perPkt("core.classify") - perPkt("cluster.observe")
	res.Metrics["packet.extract_ns"] = perPkt("packet.extract")
	res.Metrics["core.process_self_ns"] = 1000/res.Metrics["throughput_mops"] - perPkt("packet.extract") - perPkt("cluster.observe")

	producer := perPkt("pcap.next_frame") + perPkt("packet.decode") + push
	consumer := pop + perPkt("core.classify")
	wire := 1000 / res.Metrics["wire_mpps"]
	res.Metrics["ledger.producer_ns"] = producer
	res.Metrics["ledger.consumer_ns"] = consumer
	res.Metrics["ledger.wire_ns"] = wire
	// The wire door is timed on one thread, where the stages run back to
	// back: what their sum leaves of the total is hand-off and scheduling.
	res.Metrics["ledger.unattributed_ns"] = wire - (producer + consumer)

	return controlProbes(in, cfg, oc, withVictims, tr, res)
}

// probeRounds is how often each control-path call is timed.
const probeRounds = 50

// timeUs runs fn probeRounds times under spans and returns the median
// duration in µs.
func timeUs(tr *tracer, name string, fn func() error) (float64, error) {
	vs := make([]float64, 0, probeRounds)
	for i := 0; i < probeRounds; i++ {
		tr.begin(name)
		t0 := time.Now()
		err := fn()
		vs = append(vs, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(1)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(vs), nil
}

// controlProbes times the calls off the per-packet path: the control
// step, snapshots, state save and restore, the metrics page, and (on
// cicddos_mix) the victim detector alone.
func controlProbes(in *traceInput, cfg accturbo.Config, oc *cluster.Online, withVictims bool, tr *tracer, res *result) error {
	d, err := accturbo.NewDefenseE(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	// Feed the trace in probeRounds slices with one forced step after
	// each, so every step ranks a non-empty window.
	steps := make([]float64, 0, probeRounds)
	slice := (len(in.pkts) + probeRounds - 1) / probeRounds
	for lo := 0; lo < len(in.pkts); lo += slice {
		for _, tp := range in.pkts[lo:min(lo+slice, len(in.pkts))] {
			d.Process(tp.At.Duration(), tp.Pkt)
		}
		tr.begin("core.step")
		t0 := time.Now()
		d.Poll()
		steps = append(steps, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.end(1)
	}
	res.Metrics["core.step_us"] = median(steps)

	m := res.Metrics
	if m["cluster.snapshot_us"], err = timeUs(tr, "cluster.snapshot", func() error { oc.Snapshot(); return nil }); err != nil {
		return err
	}
	if m["cluster.marshal_us"], err = timeUs(tr, "cluster.marshal", func() error { oc.Marshal(); return nil }); err != nil {
		return err
	}
	var state bytes.Buffer
	if m["core.save_state_us"], err = timeUs(tr, "core.save_state", func() error {
		state.Reset()
		return d.SaveState(&state)
	}); err != nil {
		return err
	}
	m["core.snapshot_bytes"] = float64(state.Len())
	fresh := make([]*accturbo.Defense, probeRounds)
	for i := range fresh {
		if fresh[i], err = accturbo.NewDefenseE(cfg); err != nil {
			return err
		}
		defer fresh[i].Close()
	}
	next := 0
	if m["core.restore_state_us"], err = timeUs(tr, "core.restore_state", func() error {
		next++
		return fresh[next-1].RestoreState(bytes.NewReader(state.Bytes()))
	}); err != nil {
		return err
	}
	res.check("core.restore_roundtrip", fresh[0].PacketsObserved() == d.PacketsObserved(),
		"restored %d packets observed, saved %d", fresh[0].PacketsObserved(), d.PacketsObserved())
	if m["telemetry.write_metrics_us"], err = timeUs(tr, "telemetry.write_metrics", func() error {
		return d.WriteMetrics(io.Discard)
	}); err != nil {
		return err
	}

	if withVictims {
		vd, err := accturbo.NewVictimDetector(accturbo.DefaultVictimConfig())
		if err != nil {
			return err
		}
		var advances []float64
		for lo := 0; lo < len(in.pkts); lo += spanBatch {
			hi := min(lo+spanBatch, len(in.pkts))
			tr.begin("victim.observe")
			for _, tp := range in.pkts[lo:hi] {
				vd.Observe(accturbo.DstKey(tp.Pkt), uint64(tp.Pkt.Size()))
			}
			tr.end(hi - lo)
			tr.begin("victim.advance")
			t0 := time.Now()
			vd.Advance()
			advances = append(advances, float64(time.Since(t0).Nanoseconds())/1e3)
			tr.end(1)
		}
		m["victim.observe_ns"], _ = tr.layer("victim.observe").perPacket()
		m["victim.advance_us"] = median(advances)
	}

	// Allocations per 1000 packets inside one timed pass of each door.
	var a, b runtime.MemStats
	lat := make([]int64, 0, len(in.pkts)/latencyEvery+1)
	mr, err := pcap.NewMappedReader(in.image)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&a)
	if _, err := runSyncPass(in, cfg, false, &lat, nil); err != nil {
		return err
	}
	if _, err := runWirePass(mr, cfg, nil, res); err != nil {
		return err
	}
	runtime.ReadMemStats(&b)
	m["go.allocs_per_kpkt"] = float64(b.Mallocs-a.Mallocs) / float64(2*len(in.pkts)) * 1000
	return nil
}

// verdictLatencyProbe offers 64-frame bursts open loop at 0.25 M
// frames/s for `length` and times each burst from when it was due until
// the dataplane has observed it. Reading PacketsObserved takes the shard
// mutex and so disturbs the consumer it watches: informational only.
func verdictLatencyProbe(in *traceInput, cfg accturbo.Config, length time.Duration, res *result) error {
	const burst, rate = 64, 0.25e6
	interval := secs(burst / rate)
	d, err := accturbo.NewRealTimeDefenseE(cfg)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.EnableIngest(ringCapacity, 1); err != nil {
		return err
	}
	lane := d.Lane(0)
	m, err := pcap.NewMappedReader(in.image)
	if err != nil {
		return err
	}
	var lats, lates []int64
	var sent uint64
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.Sub(start) > length {
			break
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		lates = append(lates, time.Since(due).Nanoseconds())
		for i := 0; i < burst; i++ {
			_, f, err := m.NextFrame()
			if err == io.EOF {
				m.Reset()
				_, f, err = m.NextFrame()
			}
			if err != nil {
				return err
			}
			if lane.OfferFrame(f) == accturbo.OfferAccepted {
				sent++
			}
		}
		lane.Flush()
		for d.PacketsObserved() < sent {
			runtime.Gosched()
		}
		lats = append(lats, time.Since(due).Nanoseconds())
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	sort.Slice(lates, func(i, j int) bool { return lates[i] < lates[j] })
	res.Metrics["ingest.verdict_lat_p50_us"] = percentile(lats, 0.50) / 1e3
	res.Metrics["ingest.gen_late_p99_us"] = percentile(lates, 0.99) / 1e3
	return nil
}
