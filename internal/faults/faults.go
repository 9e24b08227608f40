// Package faults is the deterministic fault-injection subsystem: a
// seeded injector that exercises the failure model DESIGN.md describes
// — flapping links, lossy/duplicating/corrupting ingress and stalled
// control-plane clocks — so the resilience machinery in internal/core
// (watchdog, panic boundary, fail-open) can be tested under
// reproducible chaos.
//
// Everything is driven from one seed through a splitmix64 stream and
// scheduled on the existing eventsim clock. A chaos run with the same
// seed and spec is therefore byte-identical across executions, which is
// what lets the golden manifest pin the chaos experiment's bytes.
//
// The injector is strictly additive: no fault hook is installed unless
// the spec asks for it, so a zero Spec leaves every code path — and
// every golden baseline — untouched.
package faults

import (
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/telemetry"
)

// Injector applies a Spec's faults, counting every injection so
// experiments and the CLI can report exactly how much chaos a run
// experienced. The packet faults draw from one RNG stream derived from
// the seed.
//
// The packet-mangling methods (Mangle, AttachInterposer) follow the
// event engine's single-goroutine discipline; the counters are
// telemetry.Counter atomics, so reading them from another goroutine is
// safe.
type Injector struct {
	spec      Spec
	mangleRNG Rand

	// pendingDups tracks duplicate copies scheduled for re-injection so
	// the interposer passes them through un-mangled: a duplicate is
	// never dropped, corrupted or re-duplicated, which keeps the fault
	// cascade finite even at DupP=1 (see AttachInterposer).
	pendingDups map[*packet.Packet]struct{}

	// Counters of injected faults, by class.
	PacketsDropped    telemetry.Counter
	PacketsDuplicated telemetry.Counter
	PacketsCorrupted  telemetry.Counter
	LinkTransitions   telemetry.Counter
	PollsSuppressed   telemetry.Counter
	CallbacksDelayed  telemetry.Counter
}

// New builds an injector for the given seed and spec. The same
// (seed, spec) pair always produces the same fault sequence.
func New(seed uint64, spec Spec) *Injector {
	return &Injector{
		spec:      spec,
		mangleRNG: *NewRand(seed ^ 0x6d616e676c65), // "mangle"
	}
}

// Spec returns the spec the injector was built with.
func (inj *Injector) Spec() Spec { return inj.spec }

// FlapLinks schedules the spec's flap clauses against a port: the link
// is down through each schedule's windows. Transitions are plain
// scheduled events — no randomness — so flaps land at identical virtual
// times in every run.
func (inj *Injector) FlapLinks(eng *eventsim.Engine, port *netsim.Port) {
	for _, f := range inj.spec.Flaps {
		for i := range f.Count {
			down, up := f.Window(i)
			eng.At(down, func(t eventsim.Time) {
				inj.LinkTransitions.Inc()
				port.SetLinkState(t, false)
			})
			eng.At(up, func(t eventsim.Time) {
				inj.LinkTransitions.Inc()
				port.SetLinkState(t, true)
			})
		}
	}
}

// Mangle applies the spec's per-packet faults to one packet, consuming
// the mangle RNG stream: with DropP the packet should be discarded,
// with CorruptP header fields are flipped in place, and with DupP the
// caller should process the packet twice. Drop wins — a dropped packet
// is neither corrupted nor duplicated. The caller owns the duplication
// mechanics (copying, scheduling) because they differ between the
// simulator's pooled packets and the real-time pcap path.
func (inj *Injector) Mangle(p *packet.Packet) (drop, dup bool) {
	if inj.mangleRNG.Prob(inj.spec.DropP) {
		inj.PacketsDropped.Inc()
		return true, false
	}
	if inj.mangleRNG.Prob(inj.spec.CorruptP) {
		inj.corrupt(p)
	}
	if inj.mangleRNG.Prob(inj.spec.DupP) {
		inj.PacketsDuplicated.Inc()
		dup = true
	}
	return false, dup
}

// corrupt flips bits in one header field chosen by the RNG. Fields the
// clusterer keys on (ID, ports, TTL, fragment offset) are fair game;
// Length is left alone so a corrupted packet still serializes at its
// true wire size.
func (inj *Injector) corrupt(p *packet.Packet) {
	inj.PacketsCorrupted.Inc()
	bits := inj.mangleRNG.Next()
	switch bits % 5 {
	case 0:
		p.TTL ^= uint8(bits >> 8)
	case 1:
		p.ID ^= uint16(bits >> 8)
	case 2:
		p.SrcPort ^= uint16(bits >> 8)
	case 3:
		p.DstPort ^= uint16(bits >> 8)
	case 4:
		p.FragOffset ^= uint16(bits>>8) & 0x1fff
	}
}

// AttachInterposer installs the packet-mangling faults as an ingress
// stage on a simulated port, when the spec has any. Injected drops are
// rejected through the normal ingress path (recorded as policer drops
// by the port, and in PacketsDropped here). Duplicates are fresh copies
// injected by a same-time scheduled event, so the duplicate traverses
// the full port pipeline without recursing inside the original
// packet's arrival, and the packet pool sees two independently owned
// packets. The copy itself crosses the interposer un-mangled — it is
// never dropped, corrupted or re-duplicated — so the fault cascade is
// finite even at DupP=1.
func (inj *Injector) AttachInterposer(eng *eventsim.Engine, port *netsim.Port) {
	if inj.spec.DropP <= 0 && inj.spec.DupP <= 0 && inj.spec.CorruptP <= 0 {
		return
	}
	if inj.pendingDups == nil {
		inj.pendingDups = make(map[*packet.Packet]struct{})
	}
	port.AddIngress(func(now eventsim.Time, p *packet.Packet) bool {
		if _, isDup := inj.pendingDups[p]; isDup {
			delete(inj.pendingDups, p)
			return true
		}
		drop, dup := inj.Mangle(p)
		if drop {
			return false
		}
		if dup {
			c := new(packet.Packet)
			*c = *p
			inj.pendingDups[c] = struct{}{}
			eng.At(now, func(t eventsim.Time) { port.Inject(t, c) })
		}
		return true
	})
}
