// Package netsim models the network elements of the evaluation: an
// output port (bottleneck link) driven by a queueing discipline, a
// per-second statistics recorder with ground-truth attribution, and a
// trace replayer that feeds traffic sources into the event engine.
//
// The paper's experiments all share one topology — traffic converges on
// a switch whose output link is the bottleneck — so the substrate
// models that port precisely (line-rate serialization, qdisc-governed
// buffering), and Chain links ports for the multi-hop extensions.
//
// A port has one accounting, its Accounting: the Recorder, which counts
// every offered, delivered and dropped packet with the ground-truth
// attribution (benign vs malicious) the experiment series need and the
// drop reason. The port itself meters nothing per packet, and the
// qdiscs count nothing for it: a qdisc reports a drop as Enqueue's
// answer (a PIFO's push-out through its one OnPushOut sink) and depth
// through Len/Bytes, and the port accounts every drop once, whatever
// the qdisc. Ports never branch on nil accounting: a port without a
// recorder runs the package no-op.
package netsim

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// Ingress processes a packet before it reaches the output queue (rate
// limiters, policers). Returning false drops the packet at the policer.
// Stages that only need to observe-and-classify (ACC-Turbo's clustering)
// belong in the qdisc's classifier instead, where the assignment and the
// queue choice happen in one explicit step.
type Ingress func(now eventsim.Time, p *packet.Packet) bool

// Accounting observes every port-level packet event with access to the
// packet itself (for label/flow attribution). The Recorder is the
// standard implementation; ports without one run a no-op, so the hot
// path never tests for nil.
type Accounting interface {
	// Arrival observes a packet offered to the port, before ingress.
	Arrival(now eventsim.Time, p *packet.Packet)
	// Delivered observes a packet that finished serialization.
	Delivered(now eventsim.Time, p *packet.Packet)
	// Dropped observes a packet rejected anywhere in the port.
	Dropped(now eventsim.Time, p *packet.Packet, reason queue.DropReason)
}

// nopAccounting ignores all events.
type nopAccounting struct{}

func (nopAccounting) Arrival(eventsim.Time, *packet.Packet)                   {}
func (nopAccounting) Delivered(eventsim.Time, *packet.Packet)                 {}
func (nopAccounting) Dropped(eventsim.Time, *packet.Packet, queue.DropReason) {}

// noAccounting is the package-level no-op every unrecorded port shares.
var noAccounting Accounting = nopAccounting{}

// Port is an output port: an ingress pipeline, a queueing discipline,
// and a transmitter draining it at a fixed line rate.
type Port struct {
	eng     *eventsim.Engine
	qdisc   queue.Qdisc
	rate    float64 // line rate in bits/second
	ingress []Ingress
	acct    Accounting // never nil; see Accounting
	busy    bool
	// down marks the link failed (administratively or by fault
	// injection). While down, arrivals drop with queue.DropLinkDown and
	// the transmitter stays idle; already-queued packets survive and
	// drain when the link recovers.
	down bool
	// inflight is the packet currently serializing; the transmit-done
	// event carries the Port itself, so per-packet transmission needs
	// no closure.
	inflight *packet.Packet
	// pool, when set, receives every packet the port terminates
	// (delivered or dropped); see SetPool.
	pool *packet.Pool

	// Delivered is invoked for every packet that finishes
	// serialization (the sink side), after recording.
	Delivered func(now eventsim.Time, p *packet.Packet)
	// Dropped is invoked for every packet rejected anywhere in the
	// port (link down, policer or qdisc), with the reason, after
	// recording and before the packet is released. Observers chain onto
	// it: closed-loop senders (AIMD) use it as their loss signal, and
	// ACC builds its drop history from the qdisc's early and tail drops.
	Dropped func(now eventsim.Time, p *packet.Packet, reason queue.DropReason)
}

// NewPort builds a port transmitting at rateBits over the given qdisc.
// The recorder may be nil when no accounting is needed.
func NewPort(eng *eventsim.Engine, q queue.Qdisc, rateBits float64, rec *Recorder) *Port {
	if rateBits <= 0 {
		panic(fmt.Sprintf("netsim: port rate %v must be positive", rateBits))
	}
	if q == nil {
		panic("netsim: nil qdisc")
	}
	p := &Port{
		eng:   eng,
		qdisc: q,
		rate:  rateBits,
		acct:  noAccounting,
	}
	if rec != nil {
		p.acct = rec
	}
	// Inject accounts Enqueue's answer about the arrival; a qdisc that
	// evicts queued packets (a PIFO, or a wrapper of one) has a sink.
	if pq, ok := q.(interface {
		OnPushOut(func(eventsim.Time, *packet.Packet))
	}); ok {
		pq.OnPushOut(p.pushOut)
	}
	return p
}

// drop ends the life of a packet rejected anywhere in the port:
// accounting, the Dropped hook, then release.
func (p *Port) drop(now eventsim.Time, pkt *packet.Packet, reason queue.DropReason) {
	p.acct.Dropped(now, pkt, reason)
	if p.Dropped != nil {
		p.Dropped(now, pkt, reason)
	}
	p.release(pkt)
}

func (p *Port) pushOut(now eventsim.Time, pkt *packet.Packet) { p.drop(now, pkt, queue.DropPushOut) }

// SetPool makes the port the release point of the packet lifecycle:
// every packet it terminates — delivered after serialization, or
// dropped at the policer or inside the qdisc — is returned to the pool
// after all accounting and hooks have seen it. Only attach a pool to a
// terminal (sink) port: a port whose Delivered hook re-injects packets
// downstream (Chain) must not recycle them.
func (p *Port) SetPool(pool *packet.Pool) { p.pool = pool }

func (p *Port) release(pkt *packet.Packet) {
	if p.pool != nil {
		p.pool.Put(pkt)
	}
}

// RateBits returns the configured line rate.
func (p *Port) RateBits() float64 { return p.rate }

// SetLinkState fails or restores the link at virtual time now. While
// down, every arriving packet is dropped with queue.DropLinkDown —
// recorded through the same accounting path as qdisc drops, but under
// its own reason so fault-induced loss stays distinguishable from
// congestion loss — and the transmitter idles. Restoring the link
// resumes draining whatever the qdisc still holds. A packet already
// serializing when the link fails completes (the loss of a single
// in-flight frame is below the model's resolution).
func (p *Port) SetLinkState(now eventsim.Time, up bool) {
	if p.down == !up {
		return // no transition
	}
	p.down = !up
	if up {
		p.pump(now)
	}
}

// Qdisc returns the attached discipline.
func (p *Port) Qdisc() queue.Qdisc { return p.qdisc }

// AddIngress appends a stage to the ingress pipeline; stages run in
// registration order.
func (p *Port) AddIngress(f Ingress) {
	if f == nil {
		panic("netsim: nil ingress stage")
	}
	p.ingress = append(p.ingress, f)
}

// Inject offers a packet to the port at the current virtual time.
func (p *Port) Inject(now eventsim.Time, pkt *packet.Packet) {
	p.acct.Arrival(now, pkt)
	if p.down {
		p.drop(now, pkt, queue.DropLinkDown)
		return
	}
	for _, stage := range p.ingress {
		if !stage(now, pkt) {
			p.drop(now, pkt, queue.DropPolicer)
			return
		}
	}
	if reason := p.qdisc.Enqueue(now, pkt); reason != queue.DropNone {
		p.drop(now, pkt, reason)
		return
	}
	p.pump(now)
}

// pump starts transmitting if the line is idle.
func (p *Port) pump(now eventsim.Time) {
	if tx := p.startTx(now); tx > 0 {
		p.eng.AfterArg(tx, portTxDone, p)
	}
}

// startTx puts the qdisc's next packet on the wire if the line is idle
// and up, and returns its serialization time (≥ 1 ns), or 0 if none.
func (p *Port) startTx(now eventsim.Time) eventsim.Time {
	if p.busy || p.down {
		return 0
	}
	pkt := p.qdisc.Dequeue(now)
	if pkt == nil {
		return 0
	}
	p.busy = true
	p.inflight = pkt
	return max(eventsim.Time(float64(pkt.Size()*8)/p.rate*float64(eventsim.Second)), 1)
}

// portTxDone completes serializations: the event argument is the Port
// and the packet rides in Port.inflight, so the event is allocation-free.
// It goes on while the next one is the engine's next event (Advance). A
// Delivered hook that injected into this port has already started the
// next transmission, and startTx finds the line busy.
func portTxDone(t eventsim.Time, arg any) {
	p := arg.(*Port)
	for {
		pkt := p.inflight
		p.inflight = nil
		p.busy = false
		p.acct.Delivered(t, pkt)
		if p.Delivered != nil {
			p.Delivered(t, pkt)
		}
		p.release(pkt)
		tx := p.startTx(t)
		if tx == 0 {
			return
		}
		t += tx
		if !p.eng.Advance(t) {
			p.eng.ScheduleArg(t, portTxDone, p)
			return
		}
	}
}

// Replay schedules every packet of src as an arrival at the port,
// chaining events so only one pending arrival exists at a time. The
// replay's allocations do not grow with trace length.
func Replay(eng *eventsim.Engine, src traffic.Source, port *Port) {
	if first, ok := src.Next(); ok {
		r := &replay{eng: eng, src: src, port: port, pending: first}
		eng.ScheduleArg(max(first.At, eng.Now()), replayStep, r)
	}
}

// replay carries Replay's iteration state so each arrival reschedules
// through ScheduleArg without a fresh closure.
type replay struct {
	eng     *eventsim.Engine
	src     traffic.Source
	port    *Port
	pending traffic.TimedPacket
}

// replayStep injects the pending packet and each next one that is the
// engine's next event (Advance), and schedules the first that is not. A
// packet stamped in the past arrives now.
func replayStep(now eventsim.Time, arg any) {
	r := arg.(*replay)
	for {
		r.port.Inject(now, r.pending.Pkt)
		next, ok := r.src.Next()
		if !ok {
			return
		}
		r.pending = next
		now = max(next.At, now)
		if !r.eng.Advance(now) {
			r.eng.ScheduleArg(now, replayStep, r)
			return
		}
	}
}
