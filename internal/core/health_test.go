package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accturbo/internal/eventsim"
)

// gateClock simulates a wedged control loop: while the gate is closed,
// periodic callbacks scheduled through it are swallowed. One-shot
// callbacks (pending deployments) pass through, matching the faults
// package's stall semantics. It is the test-local stand-in for
// faults.StallClock, which cannot be imported here (import cycle).
type gateClock struct {
	Clock
	open *atomic.Bool
}

func (g gateClock) Every(interval eventsim.Time, fn func(now eventsim.Time)) (stop func()) {
	return g.Clock.Every(interval, func(now eventsim.Time) {
		if !g.open.Load() {
			return
		}
		fn(now)
	})
}

// TestWatchdogFailOpenAndRecovery drives the full degradation cycle on
// a fake clock: a healthy loop demotes the heavy cluster; a stalled
// loop trips the watchdog, which fails open to the uniform map; the
// loop recovering restores the ranked behavior and clears the flag.
func TestWatchdogFailOpenAndRecovery(t *testing.T) {
	var open atomic.Bool
	open.Store(true)

	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	cfg.FailOpenAfter = 500 * eventsim.Millisecond
	cfg.WrapClock = func(c Clock) Clock { return gateClock{Clock: c, open: &open} }
	dp := NewDataplane(cfg, true)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)
	cp.Start()
	defer cp.Stop()

	// A dominant aggregate plus background noise, as in the basic
	// control-plane test.
	for i := 1; i < 20; i++ {
		assign(dp, mkPkt(i))
	}
	for i := 0; i < 200; i++ {
		flood := mkPkt(0)
		flood.Length = 1400
		assign(dp, flood)
	}
	heavy := assign(dp, mkPkt(0)).Cluster
	lowest := dp.Config().NumQueues - 1

	// Healthy phase: the loop deploys and demotes the heavy cluster.
	// (Check right after the first deployment — later idle polls rank
	// over reset window stats.)
	clk.advance(cfg.PollInterval + cfg.DeployDelay)
	if dp.QueueFor(heavy) != lowest {
		t.Fatalf("healthy: heavy cluster in queue %d, want %d", dp.QueueFor(heavy), lowest)
	}
	h := cp.Health()
	if h.FailOpen || h.Degraded || h.ConsecutiveStale != 0 {
		t.Fatalf("healthy phase reports degraded: %+v", h)
	}
	if h.DecisionAge < 0 || h.PollAge < 0 {
		t.Fatalf("ages unset after deployments: %+v", h)
	}
	deployedBefore := cp.Deployments()

	// Stall the loop. The watchdog runs on the raw clock, so it keeps
	// observing; once staleness exceeds FailOpenAfter it must fail open
	// to the uniform map — every cluster back in queue 0.
	open.Store(false)
	clk.advance(cfg.FailOpenAfter + 2*cfg.PollInterval)
	h = cp.Health()
	if !h.FailOpen || !h.Degraded {
		t.Fatalf("stalled: watchdog did not fail open: %+v", h)
	}
	if h.ConsecutiveStale == 0 {
		t.Fatalf("stalled: consecutive-stale not counting: %+v", h)
	}
	if h.FailOpenEngagements != 1 {
		t.Fatalf("fail-open engagements = %d, want 1", h.FailOpenEngagements)
	}
	if dp.QueueFor(heavy) != 0 {
		t.Fatalf("stalled: heavy cluster in queue %d, want uniform queue 0", dp.QueueFor(heavy))
	}
	if got := cp.Deployments(); got != deployedBefore {
		t.Fatalf("ranked deployments advanced while stalled: %d -> %d", deployedBefore, got)
	}
	// Fail-open is sticky: more stalled time must not re-engage it.
	clk.advance(4 * cfg.PollInterval)
	if h = cp.Health(); h.FailOpenEngagements != 1 {
		t.Fatalf("fail-open re-engaged while already open: %+v", h)
	}

	// Recovery: re-offer the flood (the stalled windows accumulated no
	// ranked traffic), resume the loop, and the next ranked deployment
	// restores the demotion and clears fail-open.
	for i := 0; i < 200; i++ {
		flood := mkPkt(0)
		flood.Length = 1400
		assign(dp, flood)
	}
	open.Store(true)
	clk.advance(cfg.PollInterval + cfg.DeployDelay)
	h = cp.Health()
	if h.FailOpen || h.Degraded {
		t.Fatalf("recovered: still degraded: %+v", h)
	}
	if h.ConsecutiveStale != 0 {
		t.Fatalf("recovered: consecutive-stale not reset: %+v", h)
	}
	if dp.QueueFor(heavy) != lowest {
		t.Fatalf("recovered: heavy cluster in queue %d, want %d", dp.QueueFor(heavy), lowest)
	}
	if got := cp.Deployments(); got != deployedBefore+1 {
		t.Fatalf("deployments after recovery = %d, want %d", got, deployedBefore+1)
	}
}

// TestGuardRecoversPanics: a panicking OnDeploy hook is absorbed by the
// callback boundary, surfaced in Health, and the loop keeps running.
func TestGuardRecoversPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp := NewDataplane(cfg, false)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)

	fired := 0
	cp.OnDeploy = func(*Decision) {
		fired++
		if fired == 1 {
			panic("synthetic deploy-hook failure")
		}
	}
	assign(dp, mkPkt(1))
	cp.Start()
	defer cp.Stop()

	clk.advance(3*cfg.PollInterval + cfg.DeployDelay)
	if fired < 2 {
		t.Fatalf("loop died after the panic: OnDeploy fired %d times", fired)
	}
	h := cp.Health()
	if h.PanicsRecovered != 1 {
		t.Fatalf("panics recovered = %d, want 1", h.PanicsRecovered)
	}
	if !strings.Contains(h.LastPanic, "synthetic deploy-hook failure") {
		t.Fatalf("LastPanic = %q", h.LastPanic)
	}
	if cp.Deployments() < 2 {
		t.Fatalf("deployments = %d, want the loop to continue past the panic", cp.Deployments())
	}
}

// TestHealthBeforeStart: ages are -1 sentinels before any activity.
func TestHealthBeforeStart(t *testing.T) {
	cfg := DefaultConfig()
	dp := NewDataplane(cfg, false)
	cp := newCP(t, dp, &fakeClock{}, cfg)
	h := cp.Health()
	if h.PollAge != -1 || h.DecisionAge != -1 {
		t.Fatalf("pre-start ages: %+v", h)
	}
	if h.FailOpen || h.Degraded || h.LastPanic != "" {
		t.Fatalf("pre-start health not clean: %+v", h)
	}
}

// TestNewControlPlaneEInvalid: NewControlPlane rejects a bad config
// with an error instead of panicking.
func TestNewControlPlaneEInvalid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailOpenAfter = -1
	if _, err := NewControlPlane(NewDataplane(DefaultConfig(), false), &fakeClock{}, cfg); err == nil {
		t.Fatal("negative FailOpenAfter accepted")
	}
}

// TestWallClockWatchdogUnderRace runs the degradation cycle on the real
// WallClock so the race detector sees the watchdog, the poll loop,
// concurrent Health() reads, and the fail-open deployment all at once.
// An artificially wedged poll loop (gated clock) stands in for a stall;
// timing assertions are deadline-polls, not exact, to stay robust on
// loaded CI machines.
func TestWallClockWatchdogUnderRace(t *testing.T) {
	var open atomic.Bool
	open.Store(true)

	cfg := DefaultConfig()
	cfg.PollInterval = 2 * eventsim.Millisecond
	cfg.DeployDelay = eventsim.Millisecond
	cfg.FailOpenAfter = 20 * eventsim.Millisecond
	cfg.WrapClock = func(c Clock) Clock { return gateClock{Clock: c, open: &open} }
	dp := NewDataplane(cfg, true)
	clk := NewWallClock()
	defer clk.Close()
	cp := newCP(t, dp, clk, cfg)
	assign(dp, mkPkt(1))
	cp.Start()
	defer cp.Stop()

	// Hammer Health from a second goroutine the whole time: the race
	// detector checks it never conflicts with the loop or watchdog.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			_ = cp.Health()
		}
	}()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; health %+v", what, cp.Health())
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitFor("first deployment", func() bool { return cp.Deployments() > 0 })
	open.Store(false) // wedge the loop
	waitFor("fail-open", func() bool { return cp.Health().FailOpen })
	before := cp.Deployments()
	open.Store(true) // un-wedge
	waitFor("recovery", func() bool {
		h := cp.Health()
		return !h.FailOpen && cp.Deployments() > before
	})
	<-done

	if h := cp.Health(); h.FailOpenEngagements == 0 || h.MaxPollWallNs <= 0 {
		t.Fatalf("final health inconsistent: %+v", h)
	}
}
