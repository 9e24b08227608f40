package netsim

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/traffic"
)

// Multi-hop support: ports chain into paths. The paper's local ACC and
// ACC-Turbo need only the single bottleneck port, but the pushback
// extension (internal/acc/pushback.go) rate-limits aggregates at
// upstream switches, which requires upstream links with their own
// queues.

// Chain forwards every packet delivered by src into dst after a fixed
// propagation delay, modeling a link between two switches.
func Chain(eng *eventsim.Engine, src *Port, dst *Port, propagation eventsim.Time) {
	if propagation < 0 {
		panic(fmt.Sprintf("netsim: negative propagation %v", propagation))
	}
	prev := src.Delivered
	src.Delivered = func(now eventsim.Time, p *packet.Packet) {
		if prev != nil {
			prev(now, p)
		}
		eng.After(propagation, func(t eventsim.Time) {
			dst.Inject(t, p)
		})
	}
}

// FanIn replays a source into one of several ingress ports chosen per
// packet by route, modeling traffic entering the network at different
// edge switches. A nil route sends every packet to the first port.
func FanIn(eng *eventsim.Engine, src traffic.Source, ports []*Port, route func(p *packet.Packet) int) {
	if len(ports) == 0 {
		panic("netsim: FanIn with no ports")
	}
	if first, ok := src.Next(); ok {
		f := &fanIn{eng: eng, src: src, ports: ports, route: route, pending: first}
		eng.ScheduleArg(max(first.At, eng.Now()), fanInStep, f)
	}
}

// fanIn carries FanIn's iteration state so each arrival reschedules
// through ScheduleArg without a fresh closure.
type fanIn struct {
	eng     *eventsim.Engine
	src     traffic.Source
	ports   []*Port
	route   func(p *packet.Packet) int
	pending traffic.TimedPacket
}

// fanInStep injects the pending packet and each next one that is the
// engine's next event (Advance), and schedules the first that is not. A
// packet stamped in the past arrives now.
func fanInStep(now eventsim.Time, arg any) {
	f := arg.(*fanIn)
	for {
		i := 0
		if f.route != nil {
			i = min(max(f.route(f.pending.Pkt), 0), len(f.ports)-1)
		}
		f.ports[i].Inject(now, f.pending.Pkt)
		next, ok := f.src.Next()
		if !ok {
			return
		}
		f.pending = next
		now = max(next.At, now)
		if !f.eng.Advance(now) {
			f.eng.ScheduleArg(now, fanInStep, f)
			return
		}
	}
}
