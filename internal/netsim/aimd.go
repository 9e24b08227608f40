package netsim

import (
	"fmt"
	"math/rand"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
)

// AIMD is a closed-loop, congestion-controlled sender — the end-host
// behaviour the paper's trace replay cannot capture ("we are replaying
// traffic traces and do not see the impact of end-host congestion
// control. With the effect of congestion control, performance would
// worsen even further", §7.1).
//
// The model is a standard TCP-like additive-increase /
// multiplicative-decrease window: the sender keeps up to cwnd segments
// in flight; each delivery acks one segment after a fixed RTT and
// grows the window (slow start below ssthresh, congestion avoidance
// above); each loss halves it. Losses are observed exactly via the
// port's drop hook, standing in for duplicate acks — real timeout
// dynamics would only amplify the effect being measured.
type AIMD struct {
	eng  *eventsim.Engine
	port *Port
	cfg  AIMDConfig
	rng  *rand.Rand

	cwnd     float64
	ssthresh float64
	inFlight int
	timerSet bool
	pool     *packet.Pool

	// Sent, Acked, Lost count segments since construction.
	Sent, Acked, Lost uint64
	// WindowTrace samples cwnd once per RTT, for diagnostics.
	WindowTrace []float64
}

// AIMDConfig parameterizes a sender.
type AIMDConfig struct {
	// SrcIP/DstIP/ports form the connection 5-tuple.
	SrcIP, DstIP     packet.V4Addr
	SrcPort, DstPort uint16
	// Size is the segment size in bytes (default 1460).
	Size uint16
	// RTT is the feedback delay between delivery and ack (default
	// 20 ms).
	RTT eventsim.Time
	// End bounds the transmission, which starts at time zero.
	End eventsim.Time
	// InitialWindow and MaxWindow bound cwnd in segments (defaults 2
	// and 256).
	InitialWindow, MaxWindow float64
	// FlowID labels the connection for accounting and MUST be unique
	// among AIMD senders sharing a port: it is how each sender
	// recognizes its own segments in the shared hooks.
	FlowID uint32
	// Seed drives pacing jitter.
	Seed int64
}

// NewAIMD builds and arms a sender injecting into the port.
func NewAIMD(eng *eventsim.Engine, port *Port, cfg AIMDConfig) *AIMD {
	if cfg.Size == 0 {
		cfg.Size = 1460
	}
	if cfg.RTT <= 0 {
		cfg.RTT = 20 * eventsim.Millisecond
	}
	if cfg.InitialWindow <= 0 {
		cfg.InitialWindow = 2
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 256
	}
	if cfg.End <= 0 {
		panic(fmt.Sprintf("netsim: AIMD window empty: 0..%v", cfg.End))
	}
	a := &AIMD{
		eng:      eng,
		port:     port,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		cwnd:     cfg.InitialWindow,
		ssthresh: cfg.MaxWindow / 2,
	}

	// Chain the port hooks, claiming only this sender's segments.
	prevDelivered := port.Delivered
	port.Delivered = func(now eventsim.Time, p *packet.Packet) {
		if prevDelivered != nil {
			prevDelivered(now, p)
		}
		if p.FlowID == cfg.FlowID && p.Protocol == packet.ProtoTCP {
			eng.AfterArg(cfg.RTT, aimdAck, a)
		}
	}
	prevDropped := port.Dropped
	port.Dropped = func(now eventsim.Time, p *packet.Packet, reason queue.DropReason) {
		if prevDropped != nil {
			prevDropped(now, p, reason)
		}
		if p.FlowID == cfg.FlowID && p.Protocol == packet.ProtoTCP {
			a.onLoss(now)
		}
	}

	eng.ScheduleArg(0, aimdPump, a)
	eng.Every(cfg.RTT, func(now eventsim.Time) {
		if now < cfg.End {
			a.WindowTrace = append(a.WindowTrace, a.cwnd)
		}
	})
	return a
}

// aimdAck and aimdPump are the sender's event trampolines; carrying
// the AIMD itself as the argument keeps the per-segment ack timer and
// the pacing timer allocation-free.
func aimdAck(t eventsim.Time, arg any) { arg.(*AIMD).onAck(t) }

func aimdPump(t eventsim.Time, arg any) { arg.(*AIMD).pump(t) }

// SetPool recycles this sender's segments through pool. Use the same
// pool attached to the port so segments released at delivery/drop are
// the ones re-stamped here.
func (a *AIMD) SetPool(pool *packet.Pool) { a.pool = pool }

// mkPacket stamps one segment.
func (a *AIMD) mkPacket() *packet.Packet {
	var p *packet.Packet
	if a.pool != nil {
		p = a.pool.Get()
	} else {
		p = &packet.Packet{}
	}
	*p = packet.Packet{
		SrcIP:    a.cfg.SrcIP,
		DstIP:    a.cfg.DstIP,
		Protocol: packet.ProtoTCP,
		SrcPort:  a.cfg.SrcPort,
		DstPort:  a.cfg.DstPort,
		TTL:      64,
		Length:   a.cfg.Size,
		Flags:    packet.FlagACK,
		ID:       uint16(a.Sent),
		Label:    packet.Benign,
		FlowID:   a.cfg.FlowID,
	}
	return p
}

// pump sends while the window allows and re-arms a single timer, so
// the connection survives total-loss phases (modeling retransmission
// timeouts) without multiplying timer chains.
func (a *AIMD) pump(now eventsim.Time) {
	a.timerSet = false
	if now >= a.cfg.End {
		return
	}
	a.sendWindow(now)
	a.armTimer()
}

// sendWindow fills the congestion window. Attempts are bounded per
// call: a synchronous drop (full queue) reduces inFlight from inside
// Inject, which would otherwise keep this loop running forever at a
// single instant.
func (a *AIMD) sendWindow(now eventsim.Time) {
	limit := int(a.cfg.MaxWindow) + 1
	for attempts := 0; a.inFlight < int(a.cwnd) && attempts < limit; attempts++ {
		a.inFlight++
		a.Sent++
		a.port.Inject(now, a.mkPacket())
	}
}

// armTimer schedules exactly one pending pump.
func (a *AIMD) armTimer() {
	if a.timerSet {
		return
	}
	a.timerSet = true
	jitter := eventsim.Time(a.rng.Int63n(int64(a.cfg.RTT / 4)))
	a.eng.AfterArg(a.cfg.RTT+jitter, aimdPump, a)
}

// onAck grows the window: slow start below ssthresh, then congestion
// avoidance.
func (a *AIMD) onAck(now eventsim.Time) {
	if a.inFlight > 0 {
		a.inFlight--
	}
	a.Acked++
	if a.cwnd < a.ssthresh {
		a.cwnd++
	} else {
		a.cwnd += 1 / a.cwnd
	}
	if a.cwnd > a.cfg.MaxWindow {
		a.cwnd = a.cfg.MaxWindow
	}
	if now < a.cfg.End {
		// Ack-clocked transmission: send immediately, no extra timer.
		a.sendWindow(now)
	}
}

// onLoss halves the window (multiplicative decrease).
func (a *AIMD) onLoss(eventsim.Time) {
	if a.inFlight > 0 {
		a.inFlight--
	}
	a.Lost++
	a.ssthresh = a.cwnd / 2
	if a.ssthresh < 1 {
		a.ssthresh = 1
	}
	a.cwnd = a.ssthresh
}

// Goodput returns acked bits per second over the send window.
func (a *AIMD) Goodput() float64 {
	dur := a.cfg.End.Seconds()
	if dur <= 0 {
		return 0
	}
	return float64(a.Acked) * float64(a.cfg.Size) * 8 / dur
}
