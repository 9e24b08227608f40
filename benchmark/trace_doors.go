package main

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"accturbo"
	"accturbo/internal/eventsim"
	"accturbo/internal/pcap"
)

// defenseConfig is the pipeline accturbo-defend builds by default: the
// §7.1 hardware features (two destination bytes, both ports) over four
// slice-initialised clusters and queues, 250 ms polls, 1 s reseeds.
func defenseConfig() accturbo.Config {
	cfg := accturbo.HardwareConfig()
	cfg.Clustering.SliceInit = true
	cfg.NumQueues = cfg.Clustering.MaxClusters
	cfg.PollInterval = 250 * eventsim.Millisecond
	cfg.DeployDelay = cfg.PollInterval / 5
	cfg.ReseedInterval = eventsim.Second
	return cfg
}

const (
	// ringCapacity and the single lane and shard are accturbo-defend
	// -replay's load shape: one producer, one consumer.
	ringCapacity = 8192
	// spanBatch is the most packets one span may cover.
	spanBatch = 4096
	// latencyEvery: one Process call in this many is timed on its own.
	latencyEvery = 64
	// piece is how many frames or calls of a pass are timed as one piece
	// of the quiet pass: 0.1–0.3 ms of work, and a divisor of ringCapacity.
	piece = 1024
)

// wirePass is one lossless pass of the capture image through the wire
// door of a fresh real-time Defense.
type wirePass struct {
	frames   uint64 // accepted
	retries  uint64 // OfferFull answers, each retried until accepted
	rejected uint64 // OfferRejected answers
	shed     uint64 // IngestShed beyond the retries: frames really lost
	// pieces is the wall ns of each `piece` accepted frames; the last one
	// ends when Close has drained the ring. On one thread the producer
	// fills the ring, yields, and the consumer drains it all, so the same
	// pieces hold the consumer's turns on every pass and each piece does
	// the same work every time — unless the runtime stopped the producer
	// in mid-fill (a collection, say) and the consumer ran out of turn.
	// turns digests the frame counts at which the ring was found full:
	// passes with equal turns did the same work piece by piece.
	pieces []int64
	turns  uint64
}

// nsPerFrame is the pass's wall time per accepted frame.
func (p wirePass) nsPerFrame() float64 {
	return float64(quietPass(p.pieces).total().Nanoseconds()) / float64(p.frames)
}

// runWirePass replays the image through pcap.MappedReader →
// Lane.OfferFrame → ring → ObserveShardFrames, closed loop: on OfferFull
// it flushes, yields and retries, so no frame is lost. The clock stops
// when Close has drained the ring. It then checks conservation.
func runWirePass(m *pcap.MappedReader, cfg accturbo.Config, tr *tracer, res *result) (wirePass, error) {
	var p wirePass
	d, err := accturbo.NewRealTimeDefenseE(cfg)
	if err != nil {
		return p, err
	}
	if err := d.EnableIngest(ringCapacity, 1); err != nil {
		d.Close()
		return p, err
	}
	lane := d.Lane(0)
	m.Reset()

	tr.begin("wire.pass")
	mark := time.Now()
	pieceEnds := func() {
		now := time.Now()
		p.pieces = append(p.pieces, now.Sub(mark).Nanoseconds())
		mark = now
	}
	turns, lastFull := newDigest(), ^uint64(0)
	inBatch := 0
	tr.begin("wire.offer_batch")
	for {
		_, frame, err := m.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			d.Close()
			return p, err
		}
	offer:
		for {
			switch lane.OfferFrame(frame) {
			case accturbo.OfferAccepted:
				if p.frames++; p.frames%piece == 0 {
					pieceEnds()
				}
				break offer
			case accturbo.OfferRejected:
				p.rejected++
				break offer
			case accturbo.OfferFull:
				p.retries++
				if p.frames != lastFull {
					turns.mix(p.frames)
					lastFull = p.frames
				}
				lane.Flush()
				runtime.Gosched()
			default:
				d.Close()
				return p, fmt.Errorf("ingest closed mid-pass")
			}
		}
		if inBatch++; inBatch == spanBatch {
			tr.end(inBatch)
			tr.begin("wire.offer_batch")
			inBatch = 0
		}
	}
	tr.end(inBatch)
	lane.Flush()
	d.Close()
	pieceEnds()
	p.turns = turns.h
	tr.end(int(p.frames))

	// Every OfferFull also bumps IngestShed inside the facade; a retried
	// offer is not a lost frame, so the shed check nets the retries out.
	mt := d.Metrics()
	var assigned, routed uint64
	for _, v := range mt.AssignedPkts {
		assigned += v
	}
	for _, v := range mt.RoutedPkts {
		routed += v
	}
	p.shed = d.IngestShed() - p.retries
	res.Attempted += p.frames + p.rejected
	res.Failed += p.rejected + p.shed
	res.check("wire.conservation",
		mt.PacketsObserved == p.frames && assigned == p.frames && routed == p.frames,
		"accepted %d, observed %d, assigned %d, routed %d", p.frames, mt.PacketsObserved, assigned, routed)
	res.check("wire.lossless", p.shed == 0 && d.IngestRejected() == 0 && p.rejected == 0,
		"shed %d beyond %d retries, rejected %d/%d", p.shed, p.retries, d.IngestRejected(), p.rejected)
	return p, nil
}

// syncPass is one pass of the decoded trace through the sync door of a
// fresh deterministic Defense.
type syncPass struct {
	calls       uint64
	pieces      []int64 // wall ns of each `piece` calls
	digest      uint64
	zeroDist    uint64
	created     uint64
	queueSum    [2]float64 // by label
	queueCnt    [2]float64
	deployments uint64
	// Victim detector (cicddos_mix only).
	attackWindows, listedWindows int
}

// separation is (mean queue of malicious − mean queue of benign) over
// the queue span; 0 when the trace carries one class only.
func (s *syncPass) separation(numQueues int) float64 {
	if s.queueCnt[0] == 0 || s.queueCnt[1] == 0 || numQueues < 2 {
		return 0
	}
	return (s.queueSum[1]/s.queueCnt[1] - s.queueSum[0]/s.queueCnt[0]) / float64(numQueues-1)
}

// runSyncPass feeds every packet to Process at its trace timestamp, so
// polls, deploys and reseeds run inline on virtual time and the verdicts
// are a pure function of the input. One call in latencyEvery is timed on
// its own and appended to lat. With a victim detector the pass also feeds
// it and closes one window per second of trace time.
func runSyncPass(in *traceInput, cfg accturbo.Config, withVictims bool, lat *[]int64, tr *tracer) (syncPass, error) {
	var s syncPass
	d, err := accturbo.NewDefenseE(cfg)
	if err != nil {
		return s, err
	}
	var vd *accturbo.VictimDetector
	if withVictims {
		if vd, err = accturbo.NewVictimDetector(accturbo.DefaultVictimConfig()); err != nil {
			return s, err
		}
	}
	victimKey := uint64(cicddosVictim.Uint32())
	nextWindow := eventsim.Second
	closeWindow := func(end eventsim.Time) {
		listed := false
		for _, v := range vd.Advance() {
			listed = listed || v.Key == victimKey
		}
		for _, w := range in.windows {
			if w.Start < end && w.End > end-eventsim.Second {
				s.attackWindows++
				if listed {
					s.listedWindows++
				}
				break
			}
		}
	}

	h := newDigest()
	tr.begin("sync.pass")
	for lo := 0; lo < len(in.pkts); lo += spanBatch {
		hi := min(lo+spanBatch, len(in.pkts))
		tr.begin("core.process_batch")
		start := time.Now()
		for i := lo; i < hi; i++ {
			if i%piece == 0 && i > lo {
				now := time.Now()
				s.pieces = append(s.pieces, now.Sub(start).Nanoseconds())
				start = now
			}
			tp := in.pkts[i]
			at := tp.At.Duration()
			var v accturbo.Verdict
			if i%latencyEvery == 0 {
				t0 := time.Now()
				v = d.Process(at, tp.Pkt)
				*lat = append(*lat, time.Since(t0).Nanoseconds())
			} else {
				v = d.Process(at, tp.Pkt)
			}
			h.mix(uint64(v.Cluster)<<8 | uint64(v.Queue))
			l := tp.Pkt.Label & 1
			s.queueSum[l] += float64(v.Queue)
			s.queueCnt[l]++
			if v.Distance == 0 {
				s.zeroDist++
			}
			if v.NewCluster {
				s.created++
			}
			if vd != nil {
				for tp.At >= nextWindow {
					closeWindow(nextWindow)
					nextWindow += eventsim.Second
				}
				vd.Observe(accturbo.DstKey(tp.Pkt), uint64(tp.Pkt.Size()))
			}
		}
		s.pieces = append(s.pieces, time.Since(start).Nanoseconds())
		tr.end(hi - lo)
	}
	tr.end(len(in.pkts))
	s.calls = uint64(len(in.pkts))
	s.digest = h.h
	s.deployments = d.Deployments()
	d.Close()
	return s, nil
}

// forPhase runs pass once, then again while the phase has time left.
func forPhase(phase time.Duration, pass func() error) error {
	for begin := time.Now(); ; {
		if err := pass(); err != nil {
			return err
		}
		if time.Since(begin) >= phase {
			return nil
		}
	}
}

// doorsRun is what the interleaved phases of one run add up to: the
// quiet pass (see quietPass) of each door, and of the individually timed
// Process calls. Wire passes fold with the passes that took the same
// turns (see wirePass), and the quiet wire pass is that of the largest
// such group.
type doorsRun struct {
	frames, calls uint64 // of one pass
	wireByTurns   map[uint64]*wireGroup
	sync, timed   quietPass // per piece, per timed call
	wirePasses    int
	syncPasses    int
	last          syncPass
	shed          uint64
	rejected      uint64
}

type wireGroup struct {
	quiet  quietPass
	passes int
}

// wire returns the group most wire passes fell into.
func (r *doorsRun) wire() *wireGroup {
	var most *wireGroup
	for _, g := range r.wireByTurns {
		if most == nil || g.passes > most.passes {
			most = g
		}
	}
	return most
}

func (r *doorsRun) wireMpps() float64 {
	return float64(r.frames) / r.wire().quiet.total().Seconds() / 1e6
}
func (r *doorsRun) processMpps() float64 { return float64(r.calls) / r.sync.total().Seconds() / 1e6 }

// latency returns the p-quantile over the timed calls of the quiet pass.
// The clock reads whole nanoseconds and a call takes a hundred or two, so
// hundreds of calls tie at the median: the quantile is interpolated
// within its tie, as for grouped data (a reading v stands for v ± 0.5).
func (r *doorsRun) latency(p float64) float64 {
	sorted := slices.Clone(r.timed)
	slices.Sort(sorted)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p * float64(n)
	v := sorted[min(int(rank), n-1)]
	lo, _ := slices.BinarySearch(sorted, v)
	hi, _ := slices.BinarySearch(sorted, v+1)
	return float64(v) - 0.5 + (min(rank, float64(n-1))-float64(lo))/float64(hi-lo)
}

// runDoors interleaves wire and sync phases (wire, sync, wire, sync, …)
// for about `seconds`, `reps` times each, so that both doors see the
// quiet and the busy spells of the run. Every pass starts from a fresh
// Defense and so does identical work; rates and latencies are those of
// the quiet pass.
//
// The wire phases run on ONE thread: producer and consumer then take
// turns (the producer fills the ring, yields, the consumer drains it),
// so the rate is the two stages' summed cost per frame and repeats. On
// two vCPUs the same door swung between 5.7 and 9.9 M frames/s on one
// trace with how the hypervisor scheduled the pair; that number is the
// per-layer wire.parallel_mpps (see parallelWireProbe).
func runDoors(in *traceInput, cfg accturbo.Config, withVictims bool, seconds float64, reps int, tr *tracer, res *result) (*doorsRun, error) {
	m, err := pcap.NewMappedReader(in.image)
	if err != nil {
		return nil, err
	}
	phase := secs(seconds / float64(2*reps))
	lat := make([]int64, 0, len(in.pkts)/latencyEvery+1)
	run := &doorsRun{wireByTurns: map[uint64]*wireGroup{}}
	var digest uint64
	for rep := 0; rep < reps; rep++ {
		tr.setRep(rep)

		threads := runtime.GOMAXPROCS(1)
		err := forPhase(phase, func() error {
			p, err := runWirePass(m, cfg, tr, res)
			if err != nil {
				return err
			}
			g := run.wireByTurns[p.turns]
			if g == nil {
				g = &wireGroup{}
				run.wireByTurns[p.turns] = g
			}
			g.quiet.fold(p.pieces)
			g.passes++
			run.frames = p.frames
			run.wirePasses++
			run.shed += p.shed
			run.rejected += p.rejected
			return nil
		})
		runtime.GOMAXPROCS(threads)
		if err != nil {
			return nil, err
		}

		err = forPhase(phase, func() error {
			lat = lat[:0]
			s, err := runSyncPass(in, cfg, withVictims, &lat, tr)
			if err != nil {
				return err
			}
			if digest == 0 {
				digest = s.digest
			}
			res.Attempted += s.calls
			res.check("sync.verdict_digest", s.digest == digest,
				"pass digest %016x differs from the first pass's %016x", s.digest, digest)
			run.calls = s.calls
			run.sync.fold(s.pieces)
			run.timed.fold(lat)
			run.syncPasses++
			run.last = s
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	res.Digests["verdict_digest"] = fmt.Sprintf("%016x", digest)
	return run, nil
}

// parallelWireProbe runs the wire door for one phase on every thread the
// benchmark has (GOMAXPROCS = min(nproc, 2)), the way accturbo-defend
// -replay runs it, and reports the rate, how often the producer found
// the ring full, and how busy the threads were.
func parallelWireProbe(in *traceInput, cfg accturbo.Config, phase time.Duration, res *result) error {
	m, err := pcap.NewMappedReader(in.image)
	if err != nil {
		return err
	}
	var frames, retries uint64
	var passNs []float64
	cpu0, begin := cpuTime(), time.Now()
	if err := forPhase(phase, func() error {
		p, err := runWirePass(m, cfg, nil, res)
		if err == nil {
			passNs = append(passNs, p.nsPerFrame())
		}
		frames += p.frames
		retries += p.retries
		return err
	}); err != nil {
		return err
	}
	wall := time.Since(begin)
	// The median pass: on two threads a pass's rate depends on how the
	// pair was scheduled, and the fastest ones are the lucky ones.
	res.Metrics["wire.parallel_mpps"] = 1e3 / median(passNs)
	res.Metrics["ingest.retry_share"] = float64(retries) / float64(frames+retries)
	res.Metrics["wire.cpu_busy_share"] = (cpuTime() - cpu0).Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	return nil
}
