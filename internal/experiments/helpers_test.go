package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

func TestThresholdFor(t *testing.T) {
	// 80 Mbps of 1000 B packets = 10k pps; over a 5 s window = 50k.
	if got := thresholdFor(80e6, 1000, 5*eventsim.Second); got != 50_000 {
		t.Fatalf("thresholdFor = %d", got)
	}
}

// TestPulseReduction: quiet seconds at 10 Mbps and pulse seconds at 2.5
// read as a 75 % reduction, over 40 s and over 100 s, whose last decade
// is quiet: the wave has four pulses, the last ending at 80 s.
func TestPulseReduction(t *testing.T) {
	for _, secs := range []int{40, 100} {
		series := make([]float64, secs)
		for i := range series {
			series[i] = 10e6
			if i%20 >= 10 && i < 80 {
				series[i] = 2.5e6
			}
		}
		if got := pulseReduction(series, eventsim.Time(secs)*eventsim.Second); got < 74.9 || got > 75.1 {
			t.Fatalf("%d s: reduction = %v, want 75", secs, got)
		}
	}
	// No reduction when pulses equal quiet.
	flat := make([]float64, 40)
	for i := range flat {
		flat[i] = 5e6
	}
	if got := pulseReduction(flat, 40*eventsim.Second); got != 0 {
		t.Fatalf("flat series reduction = %v", got)
	}
}

func TestSeriesHelpers(t *testing.T) {
	rec := netsim.NewRecorder(eventsim.Second)
	p := &packet.Packet{
		SrcIP: packet.V4(1, 1, 1, 1), DstIP: packet.V4(2, 2, 2, 2),
		Length: 1000, Protocol: packet.ProtoUDP, FlowID: 3,
	}
	rec.Arrival(0, p)
	rec.Delivered(eventsim.Second/2, p)

	s := shareSeries(rec, 3, 80e3) // 1000 B in 1 s = 8000 bits -> share 0.1
	if len(s.Y) != 1 || s.Y[0] != 0.1 {
		t.Fatalf("shareSeries = %+v", s)
	}
	tot := totalShareSeries(rec, 80e3)
	if tot.Y[0] != 0.1 {
		t.Fatalf("totalShareSeries = %+v", tot)
	}
	th := throughputSeries(rec, packet.Benign, "x")
	if th.Y[0] != 8000.0/1e6 {
		t.Fatalf("throughputSeries = %+v", th)
	}
	dr := dropRateSeries(rec, "d")
	if dr.Name != "d" || dr.Y[0] != 0 {
		t.Fatalf("dropRateSeries = %+v", dr)
	}
}

func TestTurboRunScore(t *testing.T) {
	tr := &scoreTap{}
	// Bin 0: benign avg queue 0, malicious avg queue 3 -> win.
	// Bin 1: both average 1 -> tie (loss). Bin 2: only benign -> skip.
	tr.queueSum[0] = []float64{0, 2, 1}
	tr.pktCount[0] = []float64{4, 2, 1}
	tr.queueSum[1] = []float64{9, 3, 0}
	tr.pktCount[1] = []float64{3, 3, 0}
	if got := tr.score(); got != 50 {
		t.Fatalf("score = %v, want 50", got)
	}
	if (&scoreTap{}).score() != 0 {
		t.Fatal("empty score should be 0")
	}
}

func TestBufferFor(t *testing.T) {
	if bufferFor(10e6) != 125_000 {
		t.Fatalf("bufferFor(10e6) = %d", bufferFor(10e6))
	}
	if bufferFor(1) != 10_000 {
		t.Fatal("floor not applied")
	}
}

func TestMinMaxOf(t *testing.T) {
	if minOf([]float64{3, 1, 2}) != 1 || maxOf([]float64{3, 1, 2}) != 3 {
		t.Fatal("min/max wrong")
	}
	if minOf(nil) != 0 || maxOf(nil) != 0 {
		t.Fatal("empty min/max should be 0")
	}
}

// swallow is a FIFO that answers its second packet with DropNone and
// never queues it, so the port neither accounts a drop nor delivers it:
// the accounting bug the conservation check exists to catch.
type swallow struct {
	*queue.FIFO
	seen int
}

func (s *swallow) Enqueue(now eventsim.Time, p *packet.Packet) queue.DropReason {
	if s.seen++; s.seen == 2 {
		return queue.DropNone
	}
	return s.FIFO.Enqueue(now, p)
}

func TestReplayChecksConservation(t *testing.T) {
	src := func() traffic.Source {
		spec := traffic.FlowSpec{
			SrcIP: packet.V4(10, 0, 0, 1), DstIP: packet.V4(10, 0, 0, 2),
			Protocol: packet.ProtoUDP, Size: 1000, FlowID: 1,
		}
		return traffic.NewCBR(0, eventsim.Second, 1e6, spec.Factory(1))
	}
	bareQ := func(q queue.Qdisc) defense { return bare(func(int) queue.Qdisc { return q }) }
	run := func(until eventsim.Time, build func(*topo)) (msg string) {
		defer func() {
			if v := recover(); v != nil {
				msg = fmt.Sprint(v)
			}
		}()
		replay(until, build)
		return ""
	}
	single := func(q queue.Qdisc) func(*topo) {
		return func(tp *topo) { tp.replay(src(), tp.port(bareQ(q), 1e6)) }
	}
	// Cut mid-run, a frame may be on the wire; drained, none is.
	for _, until := range []eventsim.Time{eventsim.Second / 2, 2 * eventsim.Second} {
		if msg := run(until, single(queue.NewFIFO(10_000))); msg != "" {
			t.Fatalf("a lossless FIFO tripped the check at %v: %s", until, msg)
		}
	}
	msg := run(2*eventsim.Second, single(&swallow{FIFO: queue.NewFIFO(10_000)}))
	if !strings.Contains(msg, "1000000 b/s") || !strings.Contains(msg, "2.000000s") || !strings.Contains(msg, "125 arrived") {
		t.Fatalf("a swallowed packet was not caught: %q", msg)
	}

	// Chained: a 2 Mb/s upstream into a 1 Mb/s core over a 1 ms link.
	// Packet k reaches the upstream at 8k ms, leaves it at 8k+4 ms and
	// reaches the core at 8k+5 ms, so a cut at 500.5 ms finds one packet
	// in propagation, counted delivered upstream and not yet arrived
	// downstream.
	var up, down *legOut
	chained := func(upQ, downQ queue.Qdisc) func(*topo) {
		return func(tp *topo) {
			down = tp.port(bareQ(downQ), 1e6)
			up = tp.port(bareQ(upQ), 2e6)
			tp.chain(up, down, eventsim.Millisecond)
			tp.replay(src(), up)
		}
	}
	cut := 500*eventsim.Millisecond + 500*eventsim.Microsecond
	if msg := run(cut, chained(queue.NewFIFO(10_000), queue.NewFIFO(10_000))); msg != "" {
		t.Fatalf("a lossless chain tripped the check mid-run: %s", msg)
	}
	if sent, got := up.rec.DeliveredBenignPkts(), down.rec.ArrivedBenign(); sent != got+1 {
		t.Fatalf("cut at %v: upstream delivered %d, core received %d; want one packet in propagation", cut, sent, got)
	}
	for _, c := range []struct {
		name       string
		upQ, downQ queue.Qdisc
		rate       string
	}{
		{"downstream", queue.NewFIFO(10_000), &swallow{FIFO: queue.NewFIFO(10_000)}, "port at 1000000 b/s"},
		{"upstream", &swallow{FIFO: queue.NewFIFO(10_000)}, queue.NewFIFO(10_000), "port at 2000000 b/s"},
	} {
		if msg := run(2*eventsim.Second, chained(c.upQ, c.downQ)); !strings.Contains(msg, c.rate) {
			t.Fatalf("a packet swallowed %s was not caught at that port: %q", c.name, msg)
		}
	}
}

// capture replays pre-built packets: like a pcap replay, it is not
// traffic.Pooled.
type capture []traffic.TimedPacket

func (c *capture) Next() (traffic.TimedPacket, bool) {
	if len(*c) == 0 {
		return traffic.TimedPacket{}, false
	}
	tp := (*c)[0]
	*c = (*c)[1:]
	return tp, true
}

// TestReplayPoolsNoCapture: a port fed by a source that stamps nothing
// from the leg's pool releases nothing to it, so the pool does not keep
// every packet the capture delivered alive.
func TestReplayPoolsNoCapture(t *testing.T) {
	spec := traffic.FlowSpec{
		SrcIP: packet.V4(10, 0, 0, 1), DstIP: packet.V4(10, 0, 0, 2),
		Protocol: packet.ProtoUDP, Size: 1000, FlowID: 1,
	}
	pkts := traffic.Collect(traffic.NewCBR(0, eventsim.Second, 1e6, spec.Factory(1)))
	src := capture(slices.Clone(pkts))
	var pool *packet.Pool
	o := replay(2*eventsim.Second, func(tp *topo) {
		pool = tp.pool
		tp.replay(&src, tp.port(fifo, 1e6))
	})
	if got := o.rec.DeliveredBenignPkts(); got != uint64(len(pkts)) {
		t.Fatalf("delivered %d of the capture's %d packets", got, len(pkts))
	}
	got := pool.Get()
	for _, tp := range pkts {
		if tp.Pkt == got {
			t.Fatal("the leg's pool holds a packet the capture delivered")
		}
	}
}
