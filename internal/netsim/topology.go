package netsim

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// Multi-hop support: Chain links one port's deliveries into another's
// arrivals. The paper's local ACC and ACC-Turbo need only the single
// bottleneck port; the pushback extension (internal/acc/pushback.go)
// rate-limits aggregates at upstream switches, so it chains upstream
// ports, each with its own queue, into the bottleneck.

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
