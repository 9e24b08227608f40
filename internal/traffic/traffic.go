// Package traffic generates the workloads of the paper's evaluation:
// constant-bit-rate aggregates, the original ACC experiment's ramping
// attack, pulse-wave DDoS attacks, the attack variations of Table 3
// (single-flow, carpet bombing, source spoofing), a CAIDA-like
// synthetic background trace, and a CICDDoS-2019-like labeled attack
// day.
//
// All generators are deterministic given their seeds and stream packets
// through the Source interface, so multi-hour traces never need to be
// materialized in memory.
package traffic

import (
	"fmt"
	"math"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// TimedPacket is a packet with its arrival time at the switch.
type TimedPacket struct {
	At  eventsim.Time
	Pkt *packet.Packet
}

// Source streams packets in non-decreasing time order. Next returns
// ok=false when the source is exhausted.
type Source interface {
	Next() (TimedPacket, bool)
}

// Factory stamps the i-th packet of a source at virtual time t into
// dst, overwriting every field. The stamped packet's Length determines
// pacing (interval = bits/rate). Factories stamp rather than allocate
// so sources can recycle packets through a packet.Pool.
type Factory func(i uint64, t eventsim.Time, dst *packet.Packet)

// Pooled is implemented by sources that can recycle packets through a
// packet.Pool. Wrappers (Merge, Concat, Limit, Label, ...) forward
// SetPool to their children, so AttachPool reaches every generator in
// a composed scenario.
type Pooled interface {
	SetPool(pool *packet.Pool)
}

// AttachPool attaches a pool to a source tree. Sources that do not
// implement Pooled (pre-built slices, pcap replay) are left alone —
// pooling is an optimization, never a requirement.
func AttachPool(s Source, pool *packet.Pool) {
	if p, ok := s.(Pooled); ok {
		p.SetPool(pool)
	}
}

// RateFunc returns the source's target rate in bits/second at time t.
// A non-positive return pauses the source until the rate is positive
// again.
type RateFunc func(t eventsim.Time) float64

// CheckRates refuses the scenario, link rate (bits/s) and duration (s)
// values the generators panic or spin on: zero, negative, NaN, infinite;
// a duration past eventsim.MaxTime, which FromSeconds wraps negative; a
// link below 1 bit/s, where a slow source's gap can overflow the clock,
// or at which the scenario's fastestPace spaces sends under 1 ns apart,
// so its clock stops short of its end. A capture replay passes scenario
// "": it paces nothing. The commands check their flags with it.
func CheckRates(scenario string, link, duration float64) error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"-link", link}, {"-duration", duration}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s %v: must be positive and finite", f.name, f.v)
		}
	}
	if !(duration*float64(eventsim.Second) < float64(eventsim.MaxTime)) {
		return fmt.Errorf("-duration %v: beyond the simulator clock's %.4g s", duration, eventsim.MaxTime.Seconds())
	}
	if link < 1 {
		return fmt.Errorf("-link %v: below 1 bit/s", link)
	}
	if scenario == "" {
		return nil
	}
	mult, size, err := fastestPace(scenario)
	// A gap as rated.Next computes it, so a flood's boundary is exact.
	if err == nil && eventsim.Time(size*8/(mult*link)*float64(eventsim.Second)) < 1 {
		err = fmt.Errorf("-link %v: scenario %s paces under 1 ns apart above %.4g bit/s", link, scenario, size*8e9/mult)
	}
	return err
}

// rated paces packets from a factory according to a rate function.
type rated struct {
	start, end eventsim.Time
	rate       RateFunc
	factory    Factory
	now        eventsim.Time
	i          uint64
	// pauseStep is how far to skip forward when the rate is zero.
	pauseStep eventsim.Time
	// pool, when set, recycles released packets instead of allocating.
	pool *packet.Pool
}

// SetPool implements Pooled.
func (s *rated) SetPool(pool *packet.Pool) { s.pool = pool }

func (s *rated) alloc() *packet.Packet {
	if s.pool != nil {
		return s.pool.Get()
	}
	return &packet.Packet{}
}

// NewRated builds a source that emits factory packets from start to end
// at the (possibly time-varying) rate. It is the generic building block
// behind CBR and ramping sources.
func NewRated(start, end eventsim.Time, rate RateFunc, factory Factory) Source {
	if end < start {
		panic(fmt.Sprintf("traffic: end %v before start %v", end, start))
	}
	if rate == nil || factory == nil {
		panic("traffic: nil rate or factory")
	}
	return &rated{
		start:     start,
		end:       end,
		rate:      rate,
		factory:   factory,
		now:       start,
		pauseStep: 10 * eventsim.Millisecond,
	}
}

// NewCBR builds a constant-bit-rate source.
func NewCBR(start, end eventsim.Time, rateBits float64, factory Factory) Source {
	if rateBits <= 0 {
		panic(fmt.Sprintf("traffic: CBR rate %v must be positive", rateBits))
	}
	return NewRated(start, end, func(eventsim.Time) float64 { return rateBits }, factory)
}

func (s *rated) Next() (TimedPacket, bool) {
	for s.now < s.end {
		r := s.rate(s.now)
		if r <= 0 {
			s.now += s.pauseStep
			continue
		}
		p := s.alloc()
		s.factory(s.i, s.now, p)
		s.i++
		tp := TimedPacket{At: s.now, Pkt: p}
		s.now += eventsim.Time(float64(p.Size()*8) / r * float64(eventsim.Second))
		return tp, true
	}
	return TimedPacket{}, false
}

// ramped is the rate over p's first window: zero up to its start, a
// linear climb to peak over p.Ramp, peak, and a linear fall back to zero
// over the window's last p.Ramp. Each segment includes its end.
func ramped(p eventsim.Pulses, peak float64) RateFunc {
	start, end := p.Window(0)
	return func(t eventsim.Time) float64 {
		switch {
		case t <= start || t > end:
			return 0
		case t <= start+p.Ramp:
			return float64(t-start) / float64(p.Ramp) * peak
		case t <= end-p.Ramp:
			return peak
		}
		frac := float64(t-(end-p.Ramp)) / float64(p.Ramp)
		return peak - frac*peak
	}
}

// merge combines sources in global time order: h is a binary min-heap
// of each live source's next packet, ordered by (At, seq).
type merge struct {
	h []mergeItem
}

type mergeItem struct {
	tp  TimedPacket
	src Source
	seq int // argument order breaks ties deterministically
}

func (a *mergeItem) before(b *mergeItem) bool {
	if a.tp.At != b.tp.At {
		return a.tp.At < b.tp.At
	}
	return a.seq < b.seq
}

// down sifts h[i] to its place among its descendants.
func (m *merge) down(i int) {
	h := m.h
	it := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&it) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
}

// Merge interleaves sources by packet timestamp; packets with equal
// timestamps leave in source-argument order. Sources that are already
// drained are skipped.
func Merge(sources ...Source) Source {
	m := &merge{}
	for i, s := range sources {
		if tp, ok := s.Next(); ok {
			m.h = append(m.h, mergeItem{tp: tp, src: s, seq: i})
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// SetPool forwards the pool to every still-live child source. Packets
// pre-pulled at Merge construction were born before the pool attached;
// they are ordinary heap packets the pool simply adopts on release.
func (m *merge) SetPool(pool *packet.Pool) {
	for _, it := range m.h {
		AttachPool(it.src, pool)
	}
}

func (m *merge) Next() (TimedPacket, bool) {
	if len(m.h) == 0 {
		return TimedPacket{}, false
	}
	top := &m.h[0]
	out := top.tp
	if tp, ok := top.src.Next(); ok {
		top.tp = tp
	} else {
		n := len(m.h) - 1
		*top = m.h[n]
		m.h[n] = mergeItem{}
		m.h = m.h[:n]
	}
	if len(m.h) > 1 {
		m.down(0)
	}
	return out, true
}

// Collect drains a source into a slice (tests and trace export).
func Collect(s Source) []TimedPacket {
	var out []TimedPacket
	for {
		tp, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, tp)
	}
}

// Limit caps a source at n packets.
func Limit(s Source, n int) Source { return &limited{s: s, left: n} }

type limited struct {
	s    Source
	left int
}

// SetPool implements Pooled by forwarding.
func (l *limited) SetPool(pool *packet.Pool) { AttachPool(l.s, pool) }

func (l *limited) Next() (TimedPacket, bool) {
	if l.left <= 0 {
		return TimedPacket{}, false
	}
	l.left--
	return l.s.Next()
}

// Label rewrites the ground-truth label and vector of every packet from
// the wrapped source.
func Label(s Source, label packet.Label, vector string) Source {
	return &labeled{s: s, label: label, vector: vector}
}

type labeled struct {
	s      Source
	label  packet.Label
	vector string
}

// SetPool implements Pooled by forwarding.
func (l *labeled) SetPool(pool *packet.Pool) { AttachPool(l.s, pool) }

func (l *labeled) Next() (TimedPacket, bool) {
	tp, ok := l.s.Next()
	if !ok {
		return TimedPacket{}, false
	}
	tp.Pkt.Label = l.label
	tp.Pkt.Vector = l.vector
	return tp, true
}
