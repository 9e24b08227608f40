package traffic

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// BackgroundConfig parameterizes the CAIDA-like synthetic background
// trace. The paper replays CAIDA Equinix-NYC traces; we reproduce the
// statistics the evaluation depends on — many concurrent flows, a
// heavy-tailed flow-size distribution, a realistic protocol/port mix,
// and feature values spread across the header space — with a streaming
// generator.
type BackgroundConfig struct {
	// Rate is the long-run aggregate rate in bits/second.
	Rate float64
	// Start and End bound the trace.
	Start, End eventsim.Time
	// Seed makes the trace deterministic.
	Seed int64
}

// popular destination ports weighted roughly like a backbone mix.
var popularDstPorts = []struct {
	port   uint16
	weight int
}{
	{443, 40}, {80, 25}, {53, 8}, {22, 3}, {25, 2}, {123, 2}, {3389, 2},
	{8080, 3}, {993, 2}, {5222, 1}, {1935, 1}, {8443, 2},
}

// A background flow's packet count is Pareto-tailed with mean
// meanFlowPackets; paretoAlpha = 1.3 is a realistic elephant/mice mix.
const (
	meanFlowPackets = 12
	paretoAlpha     = 1.3
)

// packet size mix: ACK-sized, mid, MTU-sized (tri-modal like real
// backbone traces).
var sizeMix = []struct {
	size   uint16
	weight int
}{
	{40, 30}, {52, 10}, {576, 15}, {1200, 10}, {1500, 35},
}

func pickPort(rng *rand.Rand, items []struct {
	port   uint16
	weight int
}) uint16 {
	total := 0
	for _, it := range items {
		total += it.weight
	}
	n := rng.Intn(total)
	for _, it := range items {
		n -= it.weight
		if n < 0 {
			return it.port
		}
	}
	return items[0].port
}

func pickSize(rng *rand.Rand) uint16 {
	total := 0
	for _, it := range sizeMix {
		total += it.weight
	}
	n := rng.Intn(total)
	for _, it := range sizeMix {
		n -= it.weight
		if n < 0 {
			return it.size
		}
	}
	return sizeMix[0].size
}

// bgFlow is one active background flow.
type bgFlow struct {
	spec     *packet.Packet // template
	next     eventsim.Time
	interval eventsim.Time
	left     int
	seq      uint64
}

type bgHeap []*bgFlow

func (h bgHeap) Len() int { return len(h) }
func (h bgHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next < h[j].next
	}
	return h[i].seq < h[j].seq
}
func (h bgHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *bgHeap) Push(x any)   { *h = append(*h, x.(*bgFlow)) }
func (h *bgHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	*h = old[:n-1]
	return f
}

// Background is the CAIDA-like streaming source.
type Background struct {
	cfg         BackgroundConfig
	rng         *rand.Rand
	flows       bgHeap
	nextArrival eventsim.Time
	arrivalRate float64 // flows per second
	flowSeq     uint64
	id          uint16
	pool        *packet.Pool
}

// SetPool implements Pooled. Flow templates (bgFlow.spec) are retained
// by the generator and never pooled; only the stamped per-packet copies
// cycle through the pool.
func (b *Background) SetPool(pool *packet.Pool) { b.pool = pool }

func (b *Background) alloc() *packet.Packet {
	if b.pool != nil {
		return b.pool.Get()
	}
	return &packet.Packet{}
}

// NewBackground builds the generator. Flow arrivals are Poisson with a
// rate calibrated so the expected aggregate throughput matches
// cfg.Rate.
func NewBackground(cfg BackgroundConfig) *Background {
	if cfg.Rate <= 0 {
		panic(fmt.Sprintf("traffic: background rate %v must be positive", cfg.Rate))
	}
	if cfg.End <= cfg.Start {
		panic("traffic: background window empty")
	}
	b := &Background{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	// Flows arrive at the rate at which their mean size carries cfg.Rate.
	b.arrivalRate = cfg.Rate / 8 / (meanFlowPackets * meanPacketBytes())
	b.nextArrival = cfg.Start
	b.scheduleArrival()
	return b
}

// meanPacketBytes is the mean packet size of sizeMix.
func meanPacketBytes() float64 {
	meanSize := 0.0
	totalW := 0
	for _, it := range sizeMix {
		meanSize += float64(it.size) * float64(it.weight)
		totalW += it.weight
	}
	return meanSize / float64(totalW)
}

func (b *Background) scheduleArrival() {
	gap := b.rng.ExpFloat64() / b.arrivalRate
	b.nextArrival += eventsim.FromSeconds(gap)
}

// flowPackets samples the packets-per-flow distribution: Pareto with
// mean meanFlowPackets: the sample below has mean xm*alpha/(alpha-1).
func (b *Background) flowPackets() int {
	alpha := paretoAlpha
	xm := meanFlowPackets * (alpha - 1) / alpha
	if xm < 1 {
		xm = 1
	}
	n := xm / math.Pow(b.rng.Float64(), 1/alpha)
	if n < 1 {
		n = 1
	}
	if n > 1e5 {
		n = 1e5
	}
	return int(n)
}

// spawnFlow creates a new background flow starting at time t.
func (b *Background) spawnFlow(t eventsim.Time) *bgFlow {
	b.flowSeq++
	proto := packet.ProtoTCP
	r := b.rng.Float64()
	switch {
	case r < 0.12:
		proto = packet.ProtoUDP
	case r < 0.14:
		proto = packet.ProtoICMP
	}
	tmpl := &packet.Packet{
		SrcIP:    packet.V4(byte(b.rng.Intn(224)), byte(b.rng.Intn(256)), byte(b.rng.Intn(256)), byte(b.rng.Intn(256))),
		DstIP:    packet.V4(198, 18, byte(b.rng.Intn(256)), byte(b.rng.Intn(256))),
		Protocol: proto,
		TTL:      uint8(32 + b.rng.Intn(224)),
		Label:    packet.Benign,
		FlowID:   uint32(b.flowSeq),
	}
	if proto != packet.ProtoICMP {
		tmpl.SrcPort = uint16(1024 + b.rng.Intn(64512))
		tmpl.DstPort = pickPort(b.rng, popularDstPorts)
		if proto == packet.ProtoTCP {
			tmpl.Flags = packet.FlagACK
		}
	}
	n := b.flowPackets()
	// Pace the flow so it lasts ~n * (5-50ms): interactive to bulky.
	interval := eventsim.FromSeconds(0.005 + 0.045*b.rng.Float64())
	return &bgFlow{
		spec:     tmpl,
		next:     t,
		interval: interval,
		left:     n,
		seq:      b.flowSeq,
	}
}

// Next implements Source.
func (b *Background) Next() (TimedPacket, bool) {
	for {
		// Admit all flow arrivals due before the earliest queued packet.
		for b.nextArrival < b.cfg.End &&
			(len(b.flows) == 0 || b.nextArrival <= b.flows[0].next) {
			f := b.spawnFlow(b.nextArrival)
			heap.Push(&b.flows, f)
			b.scheduleArrival()
		}
		if len(b.flows) == 0 {
			return TimedPacket{}, false
		}
		f := b.flows[0]
		if f.next >= b.cfg.End {
			heap.Pop(&b.flows)
			continue
		}
		b.id++
		p := b.alloc()
		*p = *f.spec
		p.ID = b.id
		p.Length = pickSize(b.rng)
		tp := TimedPacket{At: f.next, Pkt: p}
		f.left--
		if f.left <= 0 {
			heap.Pop(&b.flows)
		} else {
			f.next += f.interval
			heap.Fix(&b.flows, 0)
		}
		return tp, true
	}
}
