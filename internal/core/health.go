package core

import "accturbo/internal/eventsim"

// Health is a point-in-time snapshot of the control plane's liveness
// and degradation state, safe to take from any goroutine (all inputs
// are atomics). It is the payload behind Defense.Health() and the
// /health endpoint of cmd/accturbo-defend. Times and ages are in the
// control plane's clock nanoseconds; ages are -1 before the first
// corresponding event.
type Health struct {
	// Now is the clock reading the ages are measured to: a WallClock's
	// at the moment of the snapshot; on any other clock the time of the
	// control plane's latest callback (see ControlPlane.Health).
	Now eventsim.Time `json:"now_ns"`
	// LastPollAt is when Step last started (-1 before the first poll);
	// PollAge is Now minus that.
	LastPollAt eventsim.Time `json:"last_poll_at_ns"`
	PollAge    eventsim.Time `json:"poll_age_ns"`
	// LastDeployAt is when the last ranked mapping was installed (-1
	// before the first deployment); DecisionAge is Now minus
	// max(LastDeployAt, start) — the staleness measure the watchdog
	// compares against FailOpenAfter.
	LastDeployAt eventsim.Time `json:"last_deploy_at_ns"`
	DecisionAge  eventsim.Time `json:"decision_age_ns"`
	// LastPollWallNs and MaxPollWallNs report how long Step held the
	// loop in real (wall-clock) nanoseconds — observational only.
	LastPollWallNs int64 `json:"last_poll_wall_ns"`
	MaxPollWallNs  int64 `json:"max_poll_wall_ns"`
	// ConsecutiveStale counts watchdog checks in a row that found the
	// decision stale; it resets to zero on every fresh deployment.
	ConsecutiveStale uint32 `json:"consecutive_stale"`
	// FailOpen reports whether the uniform-priority fallback map is
	// currently deployed. Degraded is the operator-facing roll-up:
	// true when fail-open is engaged or the watchdog has tripped
	// without recovery yet.
	FailOpen bool `json:"fail_open"`
	Degraded bool `json:"degraded"`
	// PanicsRecovered counts clock callbacks that panicked and were
	// absorbed by the recovery boundary; LastPanic is the most recent
	// panic value ("" when none).
	PanicsRecovered uint64 `json:"panics_recovered"`
	LastPanic       string `json:"last_panic,omitempty"`
	// Deployments, WatchdogTrips and FailOpenEngagements are lifetime
	// counters.
	Deployments         uint64 `json:"deployments"`
	WatchdogTrips       uint64 `json:"watchdog_trips"`
	FailOpenEngagements uint64 `json:"failopen_engagements"`
	// ConfigGeneration is the runtime-config version the loop is
	// running: 1 at construction, +1 per successful Reconfigure — the
	// operator's check that a pushed config actually took.
	ConfigGeneration uint64 `json:"config_generation"`
	// Ranking names the active ranking algorithm (§5.1 spelling:
	// "Th.", "N.P.", ...); RankSource names the authority computing it
	// — "local" for a standalone node, "fleet" when deploying the
	// coordinator's merged ranking, "fleet-fallback:local" while
	// partitioned from the coordinator (sticky until the next fleet
	// deploy applies).
	Ranking    string `json:"ranking"`
	RankSource string `json:"rank_source"`
}

// Health returns the current liveness snapshot. It never blocks on the
// control loop: everything it reads is atomic, so it stays responsive
// even while a poll is stalled — that is the point.
//
// A WallClock is read directly: it may be from any goroutine, and it
// keeps moving while the loop is wedged. A simulated clock belongs to the
// goroutine driving its engine (Defense.Process, in deterministic mode),
// so there Health answers as of the latest callback the clock delivered
// — at most one poll interval of virtual time behind.
func (cp *ControlPlane) Health() Health {
	h := Health{
		LastPollAt:          eventsim.Time(cp.lastPollAt.Load()),
		LastDeployAt:        eventsim.Time(cp.lastDeployAt.Load()),
		PollAge:             -1,
		DecisionAge:         -1,
		LastPollWallNs:      cp.pollWallLast.Load(),
		MaxPollWallNs:       cp.pollWallMax.Load(),
		ConsecutiveStale:    cp.consecStale.Load(),
		FailOpen:            cp.failOpen.Load(),
		PanicsRecovered:     cp.panicsRecovered.Value(),
		Deployments:         cp.deployments.Value(),
		WatchdogTrips:       cp.watchdogTrips.Value(),
		FailOpenEngagements: cp.failOpens.Value(),
		ConfigGeneration:    cp.rt.Generation(),
		Ranking:             cp.rt.Load().Ranking.String(),
		RankSource:          cp.ranker.Source(),
	}
	ref := cp.staleRef()
	// The clock is read after the instants the ages are measured from: a
	// tick that lands in between moves Now, never an age below zero.
	now := eventsim.Time(cp.tickAt.Load())
	if wc, ok := cp.rawClock.(*WallClock); ok {
		now = wc.Now()
	}
	h.Now = now
	if h.LastPollAt >= 0 {
		h.PollAge = now - h.LastPollAt
	}
	if ref >= 0 {
		h.DecisionAge = now - ref
	}
	if p := cp.lastPanic.Load(); p != nil {
		h.LastPanic = *p
	}
	h.Degraded = h.FailOpen || h.ConsecutiveStale > 0
	// A fleet node running on local fallback is degraded from the
	// operator's view — the node is defending, but not on the global
	// ranking — so the /health 503 tells the coordinator's monitoring
	// which nodes the partition actually cut off.
	if dr, ok := cp.ranker.(degradedRanker); ok && dr.RankingDegraded() {
		h.Degraded = true
	}
	return h
}

// staleRef is the reference instant staleness is measured from: the
// last ranked deployment, or Start when nothing has deployed yet (so a
// loop that never produces a decision still eventually fails open).
// Returns -1 before Start.
func (cp *ControlPlane) staleRef() eventsim.Time {
	ref := cp.lastDeployAt.Load()
	if s := cp.startAt.Load(); s > ref {
		ref = s
	}
	return eventsim.Time(ref)
}

// watchdog is the staleness check Start schedules on the raw
// (unwrapped) clock every PollInterval when FailOpenAfter > 0. If
// the last ranked deployment is older than FailOpenAfter it trips:
// on the first trip it deploys the uniform-priority fallback map —
// every cluster in queue 0, degenerating strict priority to a plain
// FIFO, the fail-open posture no worse than running without the
// defense. Fail-open is sticky until the loop produces a fresh
// deployment (see the deploy callback in Step), which restores the
// ranked behavior and clears the flag.
func (cp *ControlPlane) watchdog(now eventsim.Time) {
	// Read the staleness bound live: a reconfigure that tightens or
	// relaxes FailOpenAfter takes effect at the next check.
	failOpenAfter := cp.rt.Load().FailOpenAfter
	ref := cp.staleRef()
	if ref < 0 || now-ref <= failOpenAfter {
		cp.consecStale.Store(0)
		return
	}
	cp.consecStale.Add(1)
	cp.watchdogTrips.Inc()
	if cp.failOpen.CompareAndSwap(false, true) {
		cp.failOpens.Inc()
		// The fallback map is deployed directly, bypassing the Decision
		// history: it is not a ranking outcome, and LastDecision/Recent
		// keep describing what the controller last computed.
		cp.dp.Deploy(make([]int, cp.cfg.Clustering.MaxClusters))
	}
}
