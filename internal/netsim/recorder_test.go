package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// mapRecorder is the Recorder as it stood before per-packet state moved
// onto the packet and per-flow state into one record per FlowID: four
// maps, one of them keyed by packet pointer, plus a map of drop totals by
// reason. It is the model the differential tests below compare the
// Recorder against.
type mapRecorder struct {
	binWidth eventsim.Time
	bins     []binStats
	perFlow  map[uint32][]uint64 // FlowID -> delivered bytes per bin

	seqNext map[uint32]uint64 // FlowID -> next arrival sequence
	seqMax  map[uint32]uint64 // FlowID -> highest delivered sequence

	// Totals since construction (packets), indexed by label.
	arrived   [2]uint64
	dropped   [2]uint64
	delivered [2]uint64
	reordered uint64
	byReason  map[queue.DropReason]uint64
}

func newMapRecorder(binWidth eventsim.Time) *mapRecorder {
	if binWidth <= 0 {
		panic(fmt.Sprintf("netsim: bin width %v must be positive", binWidth))
	}
	return &mapRecorder{
		binWidth: binWidth,
		perFlow:  map[uint32][]uint64{},
		seqNext:  map[uint32]uint64{},
		seqMax:   map[uint32]uint64{},
		byReason: map[queue.DropReason]uint64{},
	}
}

func (r *mapRecorder) ArrivedBenign() uint64 { return r.arrived[0] }

// ArrivedMalicious returns the total malicious packets offered.
func (r *mapRecorder) ArrivedMalicious() uint64 { return r.arrived[1] }

// DroppedBenign returns the total benign packets dropped.
func (r *mapRecorder) DroppedBenign() uint64 { return r.dropped[0] }

// DroppedMalicious returns the total malicious packets dropped.
func (r *mapRecorder) DroppedMalicious() uint64 { return r.dropped[1] }

// DroppedFor returns the total packets dropped for one reason.
func (r *mapRecorder) DroppedFor(reason queue.DropReason) uint64 { return r.byReason[reason] }

// DeliveredBenignPkts returns the total benign packets delivered.
func (r *mapRecorder) DeliveredBenignPkts() uint64 { return r.delivered[0] }

// DeliveredMaliciousPkts returns the total malicious packets delivered.
func (r *mapRecorder) DeliveredMaliciousPkts() uint64 { return r.delivered[1] }

// Reordered returns delivered packets that left after a same-flow
// packet that arrived later (§10's reordering discussion).
func (r *mapRecorder) Reordered() uint64 { return r.reordered }

func (r *mapRecorder) Bins() int { return len(r.bins) }

func (r *mapRecorder) bin(now eventsim.Time) *binStats {
	i := int(now / r.binWidth)
	for len(r.bins) <= i {
		r.bins = append(r.bins, binStats{})
	}
	return &r.bins[i]
}

// Arrival records a packet offered to the port and stamps its per-flow
// arrival sequence number (used for reordering detection).
func (r *mapRecorder) Arrival(now eventsim.Time, p *packet.Packet) {
	r.seqNext[p.FlowID]++
	p.Seq = r.seqNext[p.FlowID]
	b := r.bin(now)
	l := labelIndex(p)
	b.arrivedBytes[l] += uint64(p.Size())
	b.arrivedPkts[l]++
	r.arrived[l]++
}

// Delivered records a packet that completed transmission.
func (r *mapRecorder) Delivered(now eventsim.Time, p *packet.Packet) {
	if p.Seq > 0 {
		if p.Seq < r.seqMax[p.FlowID] {
			r.reordered++
		} else {
			r.seqMax[p.FlowID] = p.Seq
		}
	}
	b := r.bin(now)
	l := labelIndex(p)
	b.deliveredBytes[l] += uint64(p.Size())
	b.deliveredPkts[l]++
	r.delivered[l]++
	i := int(now / r.binWidth)
	s := r.perFlow[p.FlowID]
	for len(s) <= i {
		s = append(s, 0)
	}
	s[i] += uint64(p.Size())
	r.perFlow[p.FlowID] = s
}

// Dropped records a packet rejected anywhere in the port (policer,
// early drop, tail drop, push-out), under its reason.
func (r *mapRecorder) Dropped(now eventsim.Time, p *packet.Packet, reason queue.DropReason) {
	b := r.bin(now)
	l := labelIndex(p)
	b.droppedBytes[l] += uint64(p.Size())
	b.droppedPkts[l]++
	r.dropped[l]++
	r.byReason[reason]++
}

func (r *mapRecorder) DeliveredBits(label packet.Label) []float64 {
	out := make([]float64, len(r.bins))
	scale := 8 / r.binWidth.Seconds()
	for i, b := range r.bins {
		out[i] = float64(b.deliveredBytes[label&1]) * scale
	}
	return out
}

// ArrivedBits returns per-bin offered load in bits/second for the given
// label class.
func (r *mapRecorder) ArrivedBits(label packet.Label) []float64 {
	out := make([]float64, len(r.bins))
	scale := 8 / r.binWidth.Seconds()
	for i, b := range r.bins {
		out[i] = float64(b.arrivedBytes[label&1]) * scale
	}
	return out
}

// FlowDeliveredBits returns the per-bin delivered throughput of one
// FlowID in bits/second, padded to Bins() length.
func (r *mapRecorder) FlowDeliveredBits(flowID uint32) []float64 {
	out := make([]float64, len(r.bins))
	scale := 8 / r.binWidth.Seconds()
	for i, v := range r.perFlow[flowID] {
		if i < len(out) {
			out[i] = float64(v) * scale
		}
	}
	return out
}

// DropRate returns the per-bin packet drop rate (dropped / arrived)
// across both classes, the bottom-row series of Fig. 2.
func (r *mapRecorder) DropRate() []float64 {
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

// sameAsModel compares every accessor of a Recorder with the model's.
func sameAsModel(t *testing.T, name string, got *Recorder, want *mapRecorder, flows []uint32) {
	t.Helper()
	totals := func(vals ...uint64) []uint64 { return vals }
	if g, w := totals(got.ArrivedBenign(), got.ArrivedMalicious(), got.DroppedBenign(), got.DroppedMalicious(),
		got.DeliveredBenignPkts(), got.DeliveredMaliciousPkts(), got.Reordered(), uint64(len(got.bins))),
		totals(want.ArrivedBenign(), want.ArrivedMalicious(), want.DroppedBenign(), want.DroppedMalicious(),
			want.DeliveredBenignPkts(), want.DeliveredMaliciousPkts(), want.Reordered(), uint64(len(want.bins))); !slices.Equal(g, w) {
		t.Errorf("%s: totals, reordered, bins = %v, model %v", name, g, w)
	}
	// Conservation by reason: every drop is counted under exactly one.
	var byReason uint64
	for r := 0; r < 256; r++ {
		reason := queue.DropReason(r)
		if g, w := got.DroppedFor(reason), want.DroppedFor(reason); g != w {
			t.Errorf("%s: %v drops = %d, model %d", name, reason, g, w)
		}
		byReason += got.DroppedFor(reason)
	}
	if dropped := got.DroppedBenign() + got.DroppedMalicious(); byReason != dropped {
		t.Errorf("%s: drops by reason sum to %d, by class to %d", name, byReason, dropped)
	}
	for _, l := range []packet.Label{packet.Benign, packet.Malicious} {
		if !slices.Equal(got.DeliveredBits(l), want.DeliveredBits(l)) || !slices.Equal(got.ArrivedBits(l), want.ArrivedBits(l)) {
			t.Errorf("%s: %v per-bin series differ from the model's", name, l)
		}
	}
	if !slices.Equal(got.DropRate(), want.DropRate()) {
		t.Errorf("%s: drop-rate series differs from the model's", name)
	}
	for _, id := range flows {
		if !slices.Equal(got.FlowDeliveredBits(id), want.FlowDeliveredBits(id)) {
			t.Errorf("%s: flow %d delivered series differs from the model's", name, id)
		}
	}
}

// exercised fails unless the run behind rec reordered and dropped
// packets and first delivered some flow after bin 0 — the cases the
// comparison with the model is there for.
func exercised(t *testing.T, name string, rec *Recorder, flows []uint32) {
	t.Helper()
	late := false
	for _, id := range flows {
		g := rec.FlowDeliveredBits(id)
		late = late || (len(g) > 1 && g[0] == 0 && slices.Max(g) > 0)
	}
	if rec.Reordered() == 0 || rec.DroppedBenign()+rec.DroppedMalicious() == 0 || !late {
		t.Errorf("%s: run too tame: %d reordered, %d dropped, a flow first delivered after bin 0: %v",
			name, rec.Reordered(), rec.DroppedBenign()+rec.DroppedMalicious(), late)
	}
}

// recorderScript drives recs, the stages of a path, with a seeded random
// sequence of arrivals, out-of-order deliveries, drops and forwards over
// pool-recycled packets, and returns every Seq stamp it saw. Some packets
// are delivered at a stage they never arrived at: fresh ones, and ones
// forwarded past a stage's Arrival. The sequence depends on the seed
// alone, so two sets of recorders can be driven alike.
func recorderScript(seed int64, recs []Accounting) (stamps []uint64, flows []uint32) {
	rng := rand.New(rand.NewSource(seed))
	pool := packet.NewPool()
	type flight struct {
		p     *packet.Packet
		stage int
	}
	var inflight []flight
	now := eventsim.Time(0)
	const steps = 20_000
	mint := func(step int) *packet.Packet {
		p := pool.Get()
		// Later quarters of the run bring new flows.
		id := uint32(rng.Intn(5) + 5*(step/(steps/4)))
		*p = packet.Packet{Length: uint16(40 + rng.Intn(1460)), FlowID: id, Label: packet.Label(id % 2)}
		return p
	}
	for step := 0; step < steps; step++ {
		if rng.Intn(4) == 0 {
			now += eventsim.Time(rng.Int63n(int64(100 * eventsim.Millisecond)))
		}
		switch op := rng.Intn(10); {
		case op < 4 || len(inflight) == 0:
			p, s := mint(step), rng.Intn(len(recs))
			recs[s].Arrival(now, p)
			stamps = append(stamps, p.Seq)
			inflight = append(inflight, flight{p, s})
		case op < 5:
			p := mint(step)
			recs[rng.Intn(len(recs))].Delivered(now, p)
			pool.Put(p)
		default:
			i := rng.Intn(len(inflight))
			f := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			if op < 7 {
				// Every reason from tail to link-down, picked by the length
				// rather than drawn, so the script's draws do not depend on it.
				recs[f.stage].Dropped(now, f.p, queue.DropTail+queue.DropReason(f.p.Length%5))
				if rng.Intn(8) == 0 {
					// No port does this, but the model defines it: a
					// delivery after a drop.
					recs[f.stage].Delivered(now, f.p)
				}
				pool.Put(f.p)
				break
			}
			recs[f.stage].Delivered(now, f.p)
			stamps = append(stamps, f.p.Seq)
			if f.stage+1 == len(recs) || rng.Intn(2) == 0 {
				pool.Put(f.p)
				break
			}
			if rng.Intn(8) != 0 {
				recs[f.stage+1].Arrival(now, f.p)
				stamps = append(stamps, f.p.Seq)
			}
			inflight = append(inflight, flight{f.p, f.stage + 1})
		}
	}
	for id := uint32(0); id < 21; id++ { // one past the last flow minted
		flows = append(flows, id)
	}
	return stamps, flows
}

func TestRecorderMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		recs := []*Recorder{NewRecorder(eventsim.Second), NewRecorder(eventsim.Second), NewRecorder(eventsim.Second)}
		models := []*mapRecorder{newMapRecorder(eventsim.Second), newMapRecorder(eventsim.Second), newMapRecorder(eventsim.Second)}
		got, flows := recorderScript(seed, []Accounting{recs[0], recs[1], recs[2]})
		want, _ := recorderScript(seed, []Accounting{models[0], models[1], models[2]})
		if !slices.Equal(got, want) {
			t.Errorf("seed %d: Seq stamps differ from the model's", seed)
		}
		for i := range recs {
			name := fmt.Sprintf("seed %d stage %d", seed, i)
			sameAsModel(t, name, recs[i], models[i], flows)
			exercised(t, name, recs[i], flows)
		}
	}
}

// chainedRun replays a background trace and an attack through two edge
// ports chained into a core port, as experiments/pushback wires them,
// each port accounted by one of accts, and returns every hook event.
// The core is the sink, so it recycles packets; its qdisc splits each
// flow over two priorities, so flows reorder. Edge 1's link goes down
// for 200 ms mid-attack, so it drops for two reasons.
func chainedRun(accts [3]Accounting) (events []uint64, flows []uint32) {
	eng := eventsim.New()
	split := queue.NewPriority(2, 20_000, func(_ eventsim.Time, p *packet.Packet) int { return int(p.ID) % 2 })
	ports := [3]*Port{
		NewPort(eng, split, 8e6, nil),
		NewPort(eng, queue.NewFIFO(25_000), 10e6, nil),
		NewPort(eng, queue.NewFIFO(25_000), 10e6, nil),
	}
	seen := map[uint32]bool{}
	for i, p := range ports {
		p.acct = accts[i]
		p.Dropped = func(now eventsim.Time, pkt *packet.Packet, reason queue.DropReason) {
			events = append(events, uint64(i), uint64(now), uint64(pkt.FlowID), pkt.Seq, uint64(reason))
		}
	}
	ports[0].Delivered = func(now eventsim.Time, pkt *packet.Packet) {
		events = append(events, 3, uint64(now), uint64(pkt.FlowID), pkt.Seq)
		if !seen[pkt.FlowID] {
			seen[pkt.FlowID] = true
			flows = append(flows, pkt.FlowID)
		}
	}
	Chain(eng, ports[1], ports[0], eventsim.Millisecond)
	Chain(eng, ports[2], ports[0], eventsim.Millisecond)
	pool := packet.NewPool()
	ports[0].SetPool(pool)
	end := 4 * eventsim.Second
	eng.At(end/2, func(t eventsim.Time) { ports[1].SetLinkState(t, false) })
	eng.At(end/2+200*eventsim.Millisecond, func(t eventsim.Time) { ports[1].SetLinkState(t, true) })
	srcs := [2]traffic.Source{
		traffic.Merge(
			traffic.NewBackground(traffic.BackgroundConfig{Rate: 3e6, End: end, Seed: 1}),
			cbr(end/4, end, 14e6, packet.Malicious, 1<<20)),
		traffic.NewBackground(traffic.BackgroundConfig{Rate: 3e6, End: end, Seed: 2}),
	}
	for i, src := range srcs {
		traffic.AttachPool(src, pool)
		Replay(eng, src, ports[i+1])
	}
	eng.RunUntil(end + eventsim.Second)
	return events, flows
}

func TestChainedRecordersMatchMapModel(t *testing.T) {
	var recs [3]*Recorder
	var models [3]*mapRecorder
	var a, b [3]Accounting
	for i := range recs {
		recs[i], models[i] = NewRecorder(eventsim.Second), newMapRecorder(eventsim.Second)
		a[i], b[i] = recs[i], models[i]
	}
	got, flows := chainedRun(a)
	want, _ := chainedRun(b)
	if !slices.Equal(got, want) {
		t.Error("delivery and drop events differ from the model's run")
	}
	for i, name := range []string{"core", "edge 1", "edge 2"} {
		sameAsModel(t, name, recs[i], models[i], flows)
	}
	exercised(t, "core", recs[0], flows) // the FIFO edges cannot reorder
	if recs[1].DroppedFor(queue.DropLinkDown) == 0 || recs[1].DroppedFor(queue.DropTail) == 0 {
		t.Errorf("edge 1: %d link-down and %d tail drops, want both", recs[1].DroppedFor(queue.DropLinkDown), recs[1].DroppedFor(queue.DropTail))
	}
}

// Steady-state traffic through a recorded port — inject, then deliver
// or drop, packets recycled through the pool — must not allocate: the
// recorder keeps its per-packet state on the packet.
func TestRecordedPortSteadyStateAllocFree(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(1000), 8e6, rec) // room for two 500 B packets
	pool := packet.NewPool()
	port.SetPool(pool)
	n := uint64(0)
	burst := func() {
		now := eng.Now()
		// One packet starts serializing, two queue, the fourth is dropped.
		for k := 0; k < 4; k++ {
			p := pool.Get()
			*p = packet.Packet{Length: 500, FlowID: uint32(n % 3), ID: uint16(n), Label: packet.Label(n % 2)}
			port.Inject(now, p)
			n++
		}
		eng.RunUntil(now + 2*eventsim.Millisecond)
	}
	burst()
	if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
		t.Fatalf("recorded port allocates %.1f times per burst in steady state", allocs)
	}
	delivered, dropped := rec.DeliveredBenignPkts()+rec.DeliveredMaliciousPkts(), rec.DroppedBenign()+rec.DroppedMalicious()
	if delivered != 3*n/4 || dropped != n/4 || len(rec.bins) != 1 {
		t.Fatalf("bursts did not run as designed: %d delivered, %d dropped of %d in %d bins", delivered, dropped, n, len(rec.bins))
	}
}
