package netsim

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
)

// Recorder accumulates time-binned traffic statistics with ground-truth
// attribution. Every experiment series in the paper (bandwidth shares,
// drop rates, benign-drop percentages, reaction times) is derived from
// a Recorder, and it is the port's only accounting: drops are also
// totalled by reason, so link-down loss never reads as congestion loss.
//
// A Recorder belongs to the engine's goroutine — it is written from the
// event loop and read between events — so its totals are plain fields.
// Per-packet state (Seq) rides on the packet itself, so an event costs
// at most the one flow lookup. It implements the port's
// Accounting interface; event times are the engine's clock and never
// decrease.
type Recorder struct {
	binWidth eventsim.Time
	bins     []binStats
	// cur is the bin last used and curStart its start time.
	cur      int
	curStart eventsim.Time

	flows map[uint32]*flowRecord
	// last caches the record of lastID: consecutive events mostly hit
	// the same flow (a pulse is few flows, a FIFO delivers in bursts).
	last   *flowRecord
	lastID uint32

	// Totals since construction (packets), indexed by label.
	arrived   [2]uint64
	dropped   [2]uint64
	delivered [2]uint64
	reordered uint64
	// droppedFor totals drops by queue.DropReason; a uint8 reason indexes
	// it with no bounds check and no folding.
	droppedFor [256]uint64
}

// flowRecord is everything the recorder keeps about one FlowID.
type flowRecord struct {
	seqNext uint64 // arrival sequence numbers stamped so far
	seqMax  uint64 // highest delivered sequence
	// bytes[i] is the flow's delivered bytes in bin firstBin+i: the
	// series starts at the flow's first delivery, not at bin 0.
	firstBin int
	bytes    []uint64
}

var _ Accounting = (*Recorder)(nil)

type binStats struct {
	arrivedBytes   [2]uint64 // indexed by label
	deliveredBytes [2]uint64
	droppedBytes   [2]uint64
	arrivedPkts    [2]uint64
	deliveredPkts  [2]uint64
	droppedPkts    [2]uint64
}

// NewRecorder creates a recorder with the given bin width (typically
// one second, matching the paper's plots).
func NewRecorder(binWidth eventsim.Time) *Recorder {
	if binWidth <= 0 {
		panic(fmt.Sprintf("netsim: bin width %v must be positive", binWidth))
	}
	return &Recorder{binWidth: binWidth, flows: map[uint32]*flowRecord{}}
}

// ArrivedBenign returns the total benign packets offered.
func (r *Recorder) ArrivedBenign() uint64 { return r.arrived[0] }

// ArrivedMalicious returns the total malicious packets offered.
func (r *Recorder) ArrivedMalicious() uint64 { return r.arrived[1] }

// DroppedBenign returns the total benign packets dropped.
func (r *Recorder) DroppedBenign() uint64 { return r.dropped[0] }

// DroppedMalicious returns the total malicious packets dropped.
func (r *Recorder) DroppedMalicious() uint64 { return r.dropped[1] }

// DroppedFor returns the total packets dropped for one reason, both
// classes together. Summed over every reason it is
// DroppedBenign()+DroppedMalicious().
func (r *Recorder) DroppedFor(reason queue.DropReason) uint64 { return r.droppedFor[reason] }

// DeliveredBenignPkts returns the total benign packets delivered.
func (r *Recorder) DeliveredBenignPkts() uint64 { return r.delivered[0] }

// DeliveredMaliciousPkts returns the total malicious packets delivered.
func (r *Recorder) DeliveredMaliciousPkts() uint64 { return r.delivered[1] }

// Reordered returns delivered packets that left after a same-flow
// packet that arrived later (§10's reordering discussion).
func (r *Recorder) Reordered() uint64 { return r.reordered }

// Bins returns the number of bins touched so far.
func (r *Recorder) Bins() int { return len(r.bins) }

// bin returns the bin holding now, and its index. Events cluster in
// time, so the division only runs when now leaves the last bin used.
func (r *Recorder) bin(now eventsim.Time) (*binStats, int) {
	if d := now - r.curStart; d < 0 || d >= r.binWidth || r.cur >= len(r.bins) {
		r.cur = int(now / r.binWidth)
		r.curStart = eventsim.Time(r.cur) * r.binWidth
		for len(r.bins) <= r.cur {
			r.bins = append(r.bins, binStats{})
		}
	}
	return &r.bins[r.cur], r.cur
}

// flow returns the record of a FlowID, creating it on first sight.
func (r *Recorder) flow(id uint32) *flowRecord {
	if r.last != nil && r.lastID == id {
		return r.last
	}
	f := r.flows[id]
	if f == nil {
		f = &flowRecord{}
		r.flows[id] = f
	}
	r.last, r.lastID = f, id
	return f
}

// Arrival records a packet offered to the port and stamps it with its
// per-flow arrival sequence number (used for reordering detection).
func (r *Recorder) Arrival(now eventsim.Time, p *packet.Packet) {
	f := r.flow(p.FlowID)
	f.seqNext++
	p.Seq = f.seqNext
	b, _ := r.bin(now)
	l := labelIndex(p)
	b.arrivedBytes[l] += uint64(p.Size())
	b.arrivedPkts[l]++
	r.arrived[l]++
}

// Delivered records a packet that completed transmission.
func (r *Recorder) Delivered(now eventsim.Time, p *packet.Packet) {
	f := r.flow(p.FlowID)
	if p.Seq > 0 {
		if p.Seq < f.seqMax {
			r.reordered++
		} else {
			f.seqMax = p.Seq
		}
	}
	l := labelIndex(p)
	b, i := r.bin(now)
	b.deliveredBytes[l] += uint64(p.Size())
	b.deliveredPkts[l]++
	r.delivered[l]++
	if len(f.bytes) == 0 {
		f.firstBin = i
	}
	for f.firstBin+len(f.bytes) <= i {
		f.bytes = append(f.bytes, 0)
	}
	f.bytes[i-f.firstBin] += uint64(p.Size())
}

// Dropped records a packet rejected anywhere in the port (link down,
// policer, early drop, tail drop, push-out), under its reason.
func (r *Recorder) Dropped(now eventsim.Time, p *packet.Packet, reason queue.DropReason) {
	b, _ := r.bin(now)
	l := labelIndex(p)
	b.droppedBytes[l] += uint64(p.Size())
	b.droppedPkts[l]++
	r.dropped[l]++
	r.droppedFor[reason]++
}

func labelIndex(p *packet.Packet) int {
	if p.Label == packet.Malicious {
		return 1
	}
	return 0
}

// DeliveredBits returns per-bin delivered throughput in bits/second for
// the given label class.
func (r *Recorder) DeliveredBits(label packet.Label) []float64 {
	out := make([]float64, len(r.bins))
	scale := 8 / r.binWidth.Seconds()
	for i, b := range r.bins {
		out[i] = float64(b.deliveredBytes[label&1]) * scale
	}
	return out
}

// ArrivedBits returns per-bin offered load in bits/second for the given
// label class.
func (r *Recorder) ArrivedBits(label packet.Label) []float64 {
	out := make([]float64, len(r.bins))
	scale := 8 / r.binWidth.Seconds()
	for i, b := range r.bins {
		out[i] = float64(b.arrivedBytes[label&1]) * scale
	}
	return out
}

// FlowDeliveredBits returns the per-bin delivered throughput of one
// FlowID in bits/second, padded to Bins() length.
func (r *Recorder) FlowDeliveredBits(flowID uint32) []float64 {
	out := make([]float64, len(r.bins))
	scale := 8 / r.binWidth.Seconds()
	if f := r.flows[flowID]; f != nil {
		for i, v := range f.bytes {
			out[f.firstBin+i] = float64(v) * scale
		}
	}
	return out
}

// DropRate returns the per-bin packet drop rate (dropped / arrived)
// across both classes, the bottom-row series of Fig. 2.
func (r *Recorder) DropRate() []float64 {
	out := make([]float64, len(r.bins))
	for i, b := range r.bins {
		arr := b.arrivedPkts[0] + b.arrivedPkts[1]
		drp := b.droppedPkts[0] + b.droppedPkts[1]
		if arr > 0 {
			out[i] = float64(drp) / float64(arr)
		}
	}
	return out
}

// BenignDropPercent returns 100 * dropped benign packets / arrived
// benign packets over the whole run — the Table 3 / Fig. 8 metric.
func (r *Recorder) BenignDropPercent() float64 {
	arrived := r.ArrivedBenign()
	if arrived == 0 {
		return 0
	}
	return 100 * float64(r.DroppedBenign()) / float64(arrived)
}

// MaliciousDropPercent is the malicious-class analogue.
func (r *Recorder) MaliciousDropPercent() float64 {
	arrived := r.ArrivedMalicious()
	if arrived == 0 {
		return 0
	}
	return 100 * float64(r.DroppedMalicious()) / float64(arrived)
}

// RecoveryTime scans delivered benign throughput after attackStart and
// returns the first bin time at which it recovers to at least frac of
// its pre-attack average, or -1 if it never does. Used for
// reaction-time readouts (Fig. 6b, Fig. 7).
func (r *Recorder) RecoveryTime(attackStart eventsim.Time, frac float64) eventsim.Time {
	series := r.DeliveredBits(packet.Benign)
	startBin := int(attackStart / r.binWidth)
	if startBin <= 0 || startBin >= len(series) {
		return -1
	}
	var base float64
	for i := 0; i < startBin; i++ {
		base += series[i]
	}
	base /= float64(startBin)
	for i := startBin; i < len(series); i++ {
		if series[i] >= frac*base {
			return eventsim.Time(i) * r.binWidth
		}
	}
	return -1
}
