// Package acc implements the original Aggregate-based Congestion
// Control of Mahajan et al. (2002), the baseline ACC-Turbo is measured
// against (§2 of the paper).
//
// ACC is a feedback loop around a RED queue:
//
//  1. Activation: every monitoring window K, the agent compares the
//     window's drop rate against p_high; sustained congestion activates
//     inference (threshold-based activation).
//  2. Inference: the headers of RED-dropped packets are clustered into
//     destination /24 prefixes; prefixes with at least twice the mean
//     per-address drop count become aggregates, and the agent walks
//     down each prefix subtree while most drops remain inside.
//  3. Control: the agent estimates each aggregate's arrival rate,
//     computes the excess rate R_excess that must be shed to bring the
//     drop rate to p_target, and rate-limits the minimum number of
//     top aggregates to a common limit L such that sum(rate_i - L) =
//     R_excess. Limits are enforced by per-session token buckets in
//     front of the RED queue.
//
// Session lifecycle (release/free/cycle timers) follows Appendix A
// Table 4 of the ACC-Turbo paper.
package acc

import (
	"fmt"
	"sort"

	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
)

// Appendix A Table 4 of the ACC-Turbo paper, plus the drop-history
// bound: ACC's fixed parameters.
const (
	// PHigh is the sustained-congestion drop rate activating the agent.
	PHigh = 0.1
	// PTarget is the post-mitigation target drop rate.
	PTarget = 0.05
	// RateEWMAInterval is the exponential-moving-average interval for
	// rate estimation ("k" in Table 4).
	RateEWMAInterval = 100 * eventsim.Millisecond
	// MaxSessions bounds simultaneous rate-limiting sessions.
	MaxSessions = 5
	// ReleaseTime is the minimum session lifetime.
	ReleaseTime = 10 * eventsim.Second
	// FreeTime is how long an aggregate must behave (arrive under its
	// limit) before release.
	FreeTime = 20 * eventsim.Second
	// CycleTime is the period at which installed sessions are
	// revisited.
	CycleTime = 5 * eventsim.Second
	// InitTime is the faster revisit period right after installation.
	InitTime = 500 * eventsim.Millisecond
	// HistoryLimit bounds the drop-history buffer (packets).
	HistoryLimit = 200_000
)

// Config is the one Table 4 value the experiments sweep.
type Config struct {
	// K is the sustained-congestion monitoring period.
	K eventsim.Time
}

// DefaultConfig returns Table 4's K.
func DefaultConfig() Config {
	return Config{K: 2 * eventsim.Second}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("acc: K %v must be positive", c.K)
	}
	return nil
}

// Prefix is an IPv4 prefix aggregate.
type Prefix struct {
	Addr uint32 // network-order address with host bits zero
	Bits int
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip uint32) bool {
	if p.Bits == 0 {
		return true
	}
	mask := ^uint32(0) << (32 - p.Bits)
	return ip&mask == p.Addr
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return fmt.Sprintf("%s/%d", packet.V4AddrFromUint32(p.Addr), p.Bits)
}

// Session is one installed rate-limiting session.
type Session struct {
	Prefix Prefix
	// LimitBits is the current rate limit in bits/second.
	LimitBits float64
	// InstalledAt is when the session was created.
	InstalledAt eventsim.Time

	bucket      *queue.TokenBucket
	behavedFor  eventsim.Time
	lastRevisit eventsim.Time
	// window byte counters for the revisit logic
	arrivedBytes uint64
	// rate is the EWMA arrival-rate estimate in bits/second.
	rate    float64
	rateAt  eventsim.Time
	rateAcc uint64
}

// dropRecord is one entry of the RED drop history.
type dropRecord struct {
	dst  uint32
	size int
}

// ACC is an agent instance attached to one port.
type ACC struct {
	cfg Config
	eng *eventsim.Engine

	history  []dropRecord
	sessions []*Session

	// Window counters at the RED queue (reset every K).
	winArrivals uint64
	winDrops    uint64
	winBytes    uint64

	// Activations counts how many windows triggered inference.
	Activations uint64
	// FirstActivation is when the agent first activated (-1 before).
	FirstActivation eventsim.Time
}

// Attach wires an ACC agent onto a port whose qdisc must be a RED
// queue: it chains its drop history onto the port's Dropped hook (RED's
// early and tail drops only, not its own policer's or a failed link's),
// inserts the rate-limiter ingress stage, and schedules the monitoring
// loop. Nothing is wired to the port or engine when it errors.
func Attach(eng *eventsim.Engine, port *netsim.Port, cfg Config) (*ACC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, ok := port.Qdisc().(*queue.RED); !ok {
		return nil, fmt.Errorf("acc: port qdisc is %T, want *queue.RED", port.Qdisc())
	}
	a := &ACC{cfg: cfg, eng: eng, FirstActivation: -1}

	prevDropped := port.Dropped
	port.Dropped = func(now eventsim.Time, p *packet.Packet, reason queue.DropReason) {
		if prevDropped != nil {
			prevDropped(now, p, reason)
		}
		if reason == queue.DropEarly || reason == queue.DropTail {
			a.winDrops++
			if len(a.history) < HistoryLimit {
				a.history = append(a.history, dropRecord{dst: p.DstIP.Uint32(), size: p.Size()})
			}
		}
	}

	port.AddIngress(func(now eventsim.Time, p *packet.Packet) bool {
		return a.admit(now, p)
	})

	eng.Every(cfg.K, func(now eventsim.Time) { a.monitor(now) })
	eng.Every(CycleTime, func(now eventsim.Time) { a.revisit(now) })
	return a, nil
}

// admit polices a packet against installed sessions and feeds the
// window counters.
func (a *ACC) admit(now eventsim.Time, p *packet.Packet) bool {
	a.winArrivals++
	a.winBytes += uint64(p.Size())
	dst := p.DstIP.Uint32()
	for _, s := range a.sessions {
		if !s.Prefix.Contains(dst) {
			continue
		}
		s.arrivedBytes += uint64(p.Size())
		s.updateRate(now, RateEWMAInterval, p.Size())
		return s.bucket.Allow(now, p.Size())
	}
	return true
}

// updateRate maintains the EWMA arrival-rate estimate of the session.
func (s *Session) updateRate(now eventsim.Time, interval eventsim.Time, size int) {
	s.rateAcc += uint64(size)
	if s.rateAt == 0 {
		s.rateAt = now
		return
	}
	if now-s.rateAt < interval {
		return
	}
	inst := float64(s.rateAcc*8) / (now - s.rateAt).Seconds()
	if s.rate == 0 {
		s.rate = inst
	} else {
		s.rate = 0.7*s.rate + 0.3*inst
	}
	s.rateAcc = 0
	s.rateAt = now
}

// MarkMisbehaving resets the behaved timer of the session covering the
// prefix. Pushback calls this when upstream reports show the aggregate
// still arriving above its limit: local arrival counters only see the
// post-policing rate, which would otherwise release the session while
// the attack persists upstream.
func (a *ACC) MarkMisbehaving(p Prefix) {
	for _, s := range a.sessions {
		if s.Prefix == p {
			s.behavedFor = 0
			return
		}
	}
}

// Sessions returns a snapshot of the installed sessions.
func (a *ACC) Sessions() []Session {
	out := make([]Session, len(a.sessions))
	for i, s := range a.sessions {
		out[i] = *s
		out[i].bucket = nil
	}
	return out
}

// monitor is the every-K activation check.
func (a *ACC) monitor(now eventsim.Time) {
	arrivals, drops := a.winArrivals, a.winDrops
	bytes := a.winBytes
	history := a.history
	a.winArrivals, a.winDrops, a.winBytes = 0, 0, 0
	a.history = a.history[:0]

	if arrivals == 0 {
		return
	}
	dropRate := float64(drops) / float64(arrivals)
	if dropRate <= PHigh {
		return
	}
	a.Activations++
	if a.FirstActivation < 0 {
		a.FirstActivation = now
	}

	aggs := identifyAggregates(history)
	if len(aggs) == 0 {
		return
	}

	// Rate estimation: the aggregate's arrival rate over the window is
	// approximated from its share of drops, scaled by the overall drop
	// probability (drops ~= arrivals * p).
	arrivalBits := float64(bytes*8) / a.cfg.K.Seconds()
	var totalDropBytes uint64
	for _, ag := range aggs {
		totalDropBytes += ag.dropBytes
	}
	var dropBytesAll uint64
	for _, h := range history {
		dropBytesAll += uint64(h.size)
	}
	if dropBytesAll == 0 {
		return
	}
	type rated struct {
		prefix Prefix
		rate   float64 // bits/s estimate
		drops  uint64
	}
	var list []rated
	for _, ag := range aggs {
		// aggregate arrival bytes ~ aggregate drop bytes / p.
		est := float64(ag.dropBytes) / dropRate * 8 / a.cfg.K.Seconds()
		list = append(list, rated{prefix: ag.prefix, rate: est, drops: ag.drops})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].drops > list[j].drops })
	if len(list) > MaxSessions {
		list = list[:MaxSessions]
	}

	// Excess rate: reduce total arrivals to delivered/(1 - p_target).
	deliveredBits := arrivalBits * (1 - dropRate)
	excess := arrivalBits - deliveredBits/(1-PTarget)
	if excess <= 0 {
		return
	}

	// Water-filling: limit the minimum number of aggregates to a
	// common L with sum(rate_i - L) = excess.
	rates := make([]float64, len(list))
	for i, r := range list {
		rates[i] = r.rate
	}
	limit, count := waterfill(rates, excess)

	for i := 0; i < count; i++ {
		a.install(now, list[i].prefix, limit, list[i].rate)
	}
}

// waterfill returns the common limit L and the number of aggregates to
// police so that sum over the top |A| of (rate_i - L) = excess. rates
// must be sorted descending.
func waterfill(rates []float64, excess float64) (limit float64, count int) {
	if len(rates) == 0 {
		return 0, 0
	}
	var sum float64
	for i := 0; i < len(rates); i++ {
		sum += rates[i]
		l := (sum - excess) / float64(i+1)
		if l < 0 {
			l = 0
		}
		if i+1 == len(rates) || l >= rates[i+1] {
			return l, i + 1
		}
	}
	return 0, len(rates)
}

// install creates or updates a session for the prefix.
func (a *ACC) install(now eventsim.Time, p Prefix, limitBits, rateEst float64) {
	if limitBits < 1000 {
		limitBits = 1000 // keep the bucket functional
	}
	for _, s := range a.sessions {
		if s.Prefix == p {
			s.LimitBits = limitBits
			s.bucket.SetRate(limitBits)
			s.behavedFor = 0
			return
		}
	}
	if len(a.sessions) >= MaxSessions {
		return
	}
	s := &Session{
		Prefix:      p,
		LimitBits:   limitBits,
		InstalledAt: now,
		bucket:      queue.NewTokenBucket(limitBits, 6000),
		lastRevisit: now,
		rate:        rateEst,
	}
	a.sessions = append(a.sessions, s)
}

// revisit implements the session lifecycle: an aggregate that has
// behaved (arrived below its limit) for FreeTime — and has lived at
// least ReleaseTime — is released.
func (a *ACC) revisit(now eventsim.Time) {
	kept := a.sessions[:0]
	for _, s := range a.sessions {
		window := now - s.lastRevisit
		if window <= 0 {
			kept = append(kept, s)
			continue
		}
		arrBits := float64(s.arrivedBytes*8) / window.Seconds()
		s.arrivedBytes = 0
		s.lastRevisit = now
		if arrBits <= s.LimitBits {
			s.behavedFor += window
		} else {
			s.behavedFor = 0
		}
		if now-s.InstalledAt >= ReleaseTime && s.behavedFor >= FreeTime {
			continue // released
		}
		kept = append(kept, s)
	}
	a.sessions = kept
}

// aggregate is an identified high-drop prefix.
type aggregate struct {
	prefix    Prefix
	drops     uint64
	dropBytes uint64
}

// narrowFraction is the drop share a child subtree must hold for the
// prefix walk-down to descend.
const narrowFraction = 0.9

// identifyAggregates implements ACC's inference: per-address drop
// counts, the 2x-mean filter, /24 grouping, and the subtree walk-down.
func identifyAggregates(history []dropRecord) []aggregate {
	if len(history) == 0 {
		return nil
	}
	perAddr := map[uint32]uint64{}
	for _, h := range history {
		perAddr[h.dst]++
	}
	mean := float64(len(history)) / float64(len(perAddr))
	hot := map[uint32]bool{}
	for addr, n := range perAddr {
		if float64(n) >= 2*mean {
			hot[addr] = true
		}
	}
	if len(hot) == 0 {
		// Uniformly spread drops: fall back to treating every address
		// as hot so dominant /24s can still emerge.
		for addr := range perAddr {
			hot[addr] = true
		}
	}

	// Group hot addresses into /24s and collect their drop mass.
	type bucket struct {
		drops uint64
		bytes uint64
		addrs []uint32
	}
	per24 := map[uint32]*bucket{}
	for _, h := range history {
		if !hot[h.dst] {
			continue
		}
		key := h.dst &^ 0xff
		b := per24[key]
		if b == nil {
			b = &bucket{}
			per24[key] = b
		}
		b.drops++
		b.bytes += uint64(h.size)
	}
	// Keep /24s above twice the mean /24 drop mass: aggregates must
	// stand out against the background.
	var total uint64
	for _, b := range per24 {
		total += b.drops
	}
	meanB := float64(total) / float64(len(per24))

	var out []aggregate
	for key, b := range per24 {
		if float64(b.drops) < 2*meanB && len(per24) > 1 {
			continue
		}
		p := Prefix{Addr: key, Bits: 24}
		p = narrow(p, history, b.drops)
		out = append(out, aggregate{prefix: p, drops: b.drops, dropBytes: b.bytes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].drops > out[j].drops })
	return out
}

// narrow walks down the prefix subtree while one child holds at least
// narrowFraction of the parent's drops.
func narrow(p Prefix, history []dropRecord, parentDrops uint64) Prefix {
	for p.Bits < 32 {
		childBits := p.Bits + 1
		mask := ^uint32(0) << (32 - childBits)
		counts := map[uint32]uint64{}
		for _, h := range history {
			if p.Contains(h.dst) {
				counts[h.dst&mask]++
			}
		}
		var bestAddr uint32
		var bestCount uint64
		for addr, n := range counts {
			if n > bestCount {
				bestAddr, bestCount = addr, n
			}
		}
		if float64(bestCount) < narrowFraction*float64(parentDrops) {
			return p
		}
		p = Prefix{Addr: bestAddr, Bits: childBits}
		parentDrops = bestCount
	}
	return p
}
