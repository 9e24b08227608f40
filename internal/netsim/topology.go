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
		f := &fanIn{eng: eng, src: src, ports: ports, route: route}
		f.schedule(first)
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

func (f *fanIn) schedule(tp traffic.TimedPacket) {
	at := tp.At
	if at < f.eng.Now() {
		at = f.eng.Now()
	}
	f.pending = tp
	f.eng.ScheduleArg(at, fanInStep, f)
}

func fanInStep(now eventsim.Time, arg any) {
	f := arg.(*fanIn)
	i := 0
	if f.route != nil {
		i = min(max(f.route(f.pending.Pkt), 0), len(f.ports)-1)
	}
	f.ports[i].Inject(now, f.pending.Pkt)
	if next, ok := f.src.Next(); ok {
		f.schedule(next)
	}
}
