package acc

import (
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
)

// Pushback is the part of the original ACC design (Mahajan et al.
// 2002) the ACC-Turbo paper scopes out: when the congested router
// identifies an aggregate, it asks *upstream* routers to rate-limit
// that aggregate near its sources, so the attack stops congesting the
// upstream links too and the shared queues drain for everyone else.
//
// The implementation mirrors the original's local decision structure:
//
//   - the congested (downstream) agent identifies aggregates and
//     computes their limits exactly as in acc.go;
//   - with pushback enabled, instead of policing only locally it
//     propagates each session to every registered upstream limiter,
//     splitting the limit in proportion to the aggregate traffic each
//     upstream actually carries (contributing links get max-min-style
//     shares, refreshed every cycle);
//   - upstream limiters police at their switch's ingress and report
//     per-prefix arrival bytes back on each cycle;
//   - when the downstream agent releases a session, the upstream
//     limiters release theirs.

// Upstream is a remote rate limiter installed at one upstream switch.
type Upstream struct {
	// Name labels the upstream in diagnostics.
	Name string

	rules map[Prefix]*upstreamRule
}

type upstreamRule struct {
	bucket *queue.TokenBucket
	// arrivedBytes counts matching traffic since the last Report.
	arrivedBytes uint64
}

// NewUpstream builds a limiter and installs its policing stage on the
// upstream port's ingress pipeline.
func NewUpstream(name string, port *netsim.Port) *Upstream {
	u := &Upstream{Name: name, rules: map[Prefix]*upstreamRule{}}
	port.AddIngress(func(now eventsim.Time, p *packet.Packet) bool {
		return u.admit(now, p)
	})
	return u
}

func (u *Upstream) admit(now eventsim.Time, p *packet.Packet) bool {
	dst := p.DstIP.Uint32()
	for prefix, rule := range u.rules {
		if !prefix.Contains(dst) {
			continue
		}
		rule.arrivedBytes += uint64(p.Size())
		return rule.bucket.Allow(now, p.Size())
	}
	return true
}

// Install creates or updates a rate limit for the prefix.
func (u *Upstream) Install(prefix Prefix, limitBits float64) {
	if limitBits < 1000 {
		limitBits = 1000
	}
	if rule, ok := u.rules[prefix]; ok {
		rule.bucket.SetRate(limitBits)
		return
	}
	u.rules[prefix] = &upstreamRule{bucket: queue.NewTokenBucket(limitBits, 6000)}
}

// Release removes the prefix's rate limit.
func (u *Upstream) Release(prefix Prefix) {
	delete(u.rules, prefix)
}

// Report returns and resets the bytes of matching traffic that arrived
// since the last call, or false if no rule is installed.
func (u *Upstream) Report(prefix Prefix) (uint64, bool) {
	rule, ok := u.rules[prefix]
	if !ok {
		return 0, false
	}
	n := rule.arrivedBytes
	rule.arrivedBytes = 0
	return n, true
}

// Pushback coordinates a downstream ACC agent with upstream limiters.
type Pushback struct {
	agent     *ACC
	upstreams []*Upstream
	// active maps each pushed prefix to its total limit.
	active   map[Prefix]float64
	interval eventsim.Time
	// Propagations counts limit installs/updates sent upstream.
	Propagations uint64
}

// EnablePushback attaches pushback to a downstream agent: every
// InitTime the downstream session set is mirrored upstream, with each
// upstream's share proportional to the aggregate traffic it reported
// carrying in the last cycle (equal split on the first).
func EnablePushback(eng *eventsim.Engine, agent *ACC, upstreams []*Upstream) *Pushback {
	if agent == nil || len(upstreams) == 0 {
		panic(fmt.Sprintf("acc: pushback needs an agent and upstreams (got %d)", len(upstreams)))
	}
	pb := &Pushback{
		agent:     agent,
		upstreams: upstreams,
		active:    map[Prefix]float64{},
		interval:  InitTime,
	}
	eng.Every(InitTime, func(now eventsim.Time) { pb.refresh(now) })
	return pb
}

// refresh mirrors the downstream sessions to the upstream limiters.
func (pb *Pushback) refresh(eventsim.Time) {
	sessions := pb.agent.Sessions()
	current := map[Prefix]float64{}
	for _, s := range sessions {
		current[s.Prefix] = s.LimitBits
	}

	// Release upstream rules whose downstream session is gone.
	for prefix := range pb.active {
		if _, ok := current[prefix]; !ok {
			for _, u := range pb.upstreams {
				u.Release(prefix)
			}
			delete(pb.active, prefix)
		}
	}

	// Install/update the rest, splitting by reported contribution.
	for prefix, limit := range current {
		shares := make([]float64, len(pb.upstreams))
		var total float64
		for i, u := range pb.upstreams {
			if bytes, ok := u.Report(prefix); ok {
				shares[i] = float64(bytes)
				total += shares[i]
			}
		}
		// Upstream-reported arrival rate: while it exceeds the limit,
		// the aggregate is still misbehaving even though the local
		// (post-policing) counters look tame — keep the session alive,
		// as the original pushback's status reports do.
		if pb.interval > 0 {
			reportedBits := total * 8 / pb.interval.Seconds()
			if reportedBits > 1.2*limit {
				pb.agent.MarkMisbehaving(prefix)
			}
		}
		for i, u := range pb.upstreams {
			share := limit / float64(len(pb.upstreams))
			if total > 0 {
				// Contribution-proportional with a 5% floor so an
				// aggregate shifting paths is still caught.
				share = limit * (0.05 + 0.95*shares[i]/total)
			}
			u.Install(prefix, share)
			pb.Propagations++
		}
		pb.active[prefix] = limit
	}
}
