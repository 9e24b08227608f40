package core

import (
	"testing"

	"accturbo/internal/eventsim"
)

// feedSteady pushes one dominant aggregate plus background noise so
// every poll window has clusters to rank.
func feedSteady(dp *Dataplane) {
	for i := 1; i < 10; i++ {
		assign(dp, mkPkt(i))
	}
	for i := 0; i < 100; i++ {
		flood := mkPkt(0)
		flood.Length = 1400
		assign(dp, flood)
	}
}

// TestReconfigurePollIntervalMidFlight changes the poll interval while
// the loop is running and checks the ticker lifecycle end to end: the
// old ticker is cancelled, the new cadence takes over from the moment
// of the reconfigure, and the deployment count matches exactly one
// ticker's schedule — any double-fire would overshoot it.
func TestReconfigurePollIntervalMidFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp := NewDataplane(cfg, false)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)
	cp.Start()
	defer cp.Stop()
	feedSteady(dp)

	if got := cp.ConfigGeneration(); got != 1 {
		t.Fatalf("initial generation = %d, want 1", got)
	}

	// First poll at 100ms deploys at 110ms; stop just past it.
	clk.advance(150 * eventsim.Millisecond)
	if got := cp.Deployments(); got != 1 {
		t.Fatalf("deployments before reconfigure = %d, want 1", got)
	}

	quick := 40 * eventsim.Millisecond
	gen, err := cp.Reconfigure(RuntimePatch{PollInterval: &quick})
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if gen != 2 || cp.ConfigGeneration() != 2 {
		t.Fatalf("generation after reconfigure = %d/%d, want 2", gen, cp.ConfigGeneration())
	}
	if got := cp.Runtime().PollInterval; got != quick {
		t.Fatalf("live PollInterval = %v, want %v", got, quick)
	}

	// New cadence from t=150ms: polls at 190..390 (6 of them), deploys
	// 10ms later — the last lands at 400ms. The old ticker would have
	// added polls at 200/300/400ms; its cancellation plus the
	// generation stamp keep the count exact.
	clk.advance(250 * eventsim.Millisecond)
	if got := cp.Deployments(); got != 7 {
		t.Fatalf("deployments after reconfigure = %d, want 7 (1 old + 6 at new cadence)", got)
	}
}

// TestReconfigureStaleTickerNoDoubleFire models the cancel/fire race
// the generation stamp exists for: a ticker from the previous
// generation that still fires (here: forcibly resurrected after its
// cancellation) must be a no-op, because its stamp no longer matches
// the live generation.
func TestReconfigureStaleTickerNoDoubleFire(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp := NewDataplane(cfg, false)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)
	cp.Start()
	defer cp.Stop()
	feedSteady(dp)

	stale := make([]*fakeJob, len(clk.jobs))
	copy(stale, clk.jobs)

	quick := 50 * eventsim.Millisecond
	if _, err := cp.Reconfigure(RuntimePatch{PollInterval: &quick}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	for _, j := range stale {
		if !j.dead {
			t.Fatal("reconfigure left a previous-generation ticker armed")
		}
		j.dead = false // resurrect: simulate the callback racing its cancel
	}

	// 200ms: new-cadence polls at 50/100/150/200 deploy at 60/110/160/
	// 210 → 3 complete by t=200. The resurrected 100ms ticker fires at
	// 100/200 but must no-op on the stale generation.
	clk.advance(200 * eventsim.Millisecond)
	if got := cp.Deployments(); got != 3 {
		t.Fatalf("deployments = %d, want 3 (stale ticker fired through)", got)
	}
}

// TestReconfigureWatchdogTracksPollInterval runs a loop that never
// produces a decision (no traffic), so the watchdog is the only actor:
// the watchdog checks once per poll interval, across a reconfigure too,
// and a live FailOpenAfter change must move the staleness bound.
func TestReconfigureWatchdogTracksPollInterval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	cfg.FailOpenAfter = 250 * eventsim.Millisecond
	dp := NewDataplane(cfg, false)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)
	cp.Start()
	defer cp.Stop()

	// No traffic: Step returns nil every poll, staleness grows from
	// start. Checks at 100/200/.../500ms; stale once age > 250ms →
	// trips at 300, 400, 500.
	clk.advance(500 * eventsim.Millisecond)
	if got := cp.Health().ConsecutiveStale; got != 3 {
		t.Fatalf("consecutive stale at 100ms cadence = %d, want 3", got)
	}
	if !cp.Health().FailOpen {
		t.Fatal("watchdog did not fail open")
	}

	// Halve the poll interval: the watchdog must now check
	// every 50ms — 10 more trips in the next 500ms instead of 5.
	quick := 50 * eventsim.Millisecond
	if _, err := cp.Reconfigure(RuntimePatch{PollInterval: &quick}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	before := cp.Health().ConsecutiveStale
	clk.advance(500 * eventsim.Millisecond)
	if got := cp.Health().ConsecutiveStale - before; got != 10 {
		t.Fatalf("watchdog checks after halving poll interval = %d in 500ms, want 10", got)
	}

	// Relax the staleness bound beyond the horizon: the very next check
	// finds the decision age inside the bound and resets the counter.
	relaxed := 100 * eventsim.Second
	if _, err := cp.Reconfigure(RuntimePatch{FailOpenAfter: &relaxed}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	clk.advance(50 * eventsim.Millisecond)
	if got := cp.Health().ConsecutiveStale; got != 0 {
		t.Fatalf("consecutive stale after relaxing FailOpenAfter = %d, want 0", got)
	}
}

// TestReconfigureRankingNextTick flips the ranking strategy and checks
// the very next poll ranks under it: a byte-heavy aggregate and a
// packet-heavy aggregate swap places in the queue order.
func TestReconfigureRankingNextTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp := NewDataplane(cfg, false)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)
	cp.Start()
	defer cp.Stop()

	feed := func() (bytesHeavy, pktHeavy int) {
		// Few large packets vs. many small ones.
		for i := 0; i < 10; i++ {
			p := mkPkt(0)
			p.Length = 1400
			bytesHeavy = assign(dp, p).Cluster
		}
		for i := 0; i < 100; i++ {
			p := mkPkt(5)
			p.Length = 64
			pktHeavy = assign(dp, p).Cluster
		}
		return
	}

	bytesHeavy, pktHeavy := feed()
	if bytesHeavy == pktHeavy {
		t.Fatal("test traffic collapsed into one cluster")
	}
	clk.advance(110 * eventsim.Millisecond)
	if qb, qp := dp.QueueFor(bytesHeavy), dp.QueueFor(pktHeavy); qb <= qp {
		t.Fatalf("under ByThroughput: bytes-heavy queue %d should be below pkt-heavy queue %d", qb, qp)
	}

	byRate := ByPacketRate
	if _, err := cp.Reconfigure(RuntimePatch{Ranking: &byRate}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	feed()
	clk.advance(110 * eventsim.Millisecond)
	if qb, qp := dp.QueueFor(bytesHeavy), dp.QueueFor(pktHeavy); qp <= qb {
		t.Fatalf("under ByPacketRate: pkt-heavy queue %d should be below bytes-heavy queue %d", qp, qb)
	}
}

// TestReconfigureRejectsInvalid checks a bad patch changes nothing:
// config, generation, and ticker schedule all stay as they were.
func TestReconfigureRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	dp := NewDataplane(cfg, false)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)
	cp.Start()
	defer cp.Stop()

	before := cp.Runtime()
	genBefore := cp.ConfigGeneration()
	bad, negative := eventsim.Time(0), eventsim.Time(-1)
	for _, patch := range []RuntimePatch{
		{PollInterval: &bad},
		{DeployDelay: &bad},
		{FailOpenAfter: &negative},
	} {
		gen, err := cp.Reconfigure(patch)
		if err == nil {
			t.Fatalf("patch %+v accepted", patch)
		}
		if gen != genBefore || cp.ConfigGeneration() != genBefore {
			t.Fatalf("failed reconfigure moved the generation: %d -> %d", genBefore, gen)
		}
	}
	if cp.Runtime() != before {
		t.Fatal("failed reconfigure mutated the runtime config")
	}
	for _, j := range clk.jobs {
		if j.dead {
			t.Fatal("failed reconfigure cancelled a live ticker")
		}
	}
}

// TestReconfigureBeforeStart patches a constructed-but-unstarted
// control plane: the new config must be live when Start later schedules
// the tickers.
func TestReconfigureBeforeStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp := NewDataplane(cfg, false)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)

	quick := 20 * eventsim.Millisecond
	if _, err := cp.Reconfigure(RuntimePatch{PollInterval: &quick}); err != nil {
		t.Fatalf("Reconfigure before Start: %v", err)
	}
	feedSteady(dp)
	cp.Start()
	defer cp.Stop()
	clk.advance(100 * eventsim.Millisecond)
	// Polls at 20/40/60/80/100ms, deploys 10ms later → 4 complete.
	if got := cp.Deployments(); got != 4 {
		t.Fatalf("deployments = %d, want 4 (Start did not pick up pre-Start patch)", got)
	}
}
