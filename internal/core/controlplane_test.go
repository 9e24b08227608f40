package core

import (
	"testing"

	"accturbo/internal/eventsim"
)

// fakeClock is a deterministic Clock test double for the wall-clock
// code path: time only moves when the test calls advance, and due
// callbacks run synchronously inside advance, in timestamp order (ties
// by scheduling order). No real timers, no goroutines, no sleeps.
type fakeClock struct {
	now  eventsim.Time
	seq  int
	jobs []*fakeJob
}

type fakeJob struct {
	at       eventsim.Time
	seq      int
	fn       func(now eventsim.Time)
	interval eventsim.Time // 0 for one-shots
	dead     bool
}

// newCP is NewControlPlane for a configuration the test expects to be
// valid.
func newCP(tb testing.TB, dp *Dataplane, clock Clock, cfg Config) *ControlPlane {
	tb.Helper()
	cp, err := NewControlPlane(dp, clock, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return cp
}

func (c *fakeClock) Now() eventsim.Time { return c.now }

func (c *fakeClock) After(delay eventsim.Time, fn func(now eventsim.Time)) (cancel func()) {
	j := &fakeJob{at: c.now + delay, seq: c.seq, fn: fn}
	c.seq++
	c.jobs = append(c.jobs, j)
	return func() { j.dead = true }
}

func (c *fakeClock) Every(interval eventsim.Time, fn func(now eventsim.Time)) (stop func()) {
	j := &fakeJob{at: c.now + interval, seq: c.seq, fn: fn, interval: interval}
	c.seq++
	c.jobs = append(c.jobs, j)
	return func() { j.dead = true }
}

// advance moves the clock forward by d, firing every due callback at
// its own timestamp.
func (c *fakeClock) advance(d eventsim.Time) {
	target := c.now + d
	for {
		var next *fakeJob
		for _, j := range c.jobs {
			if j.dead || j.at > target {
				continue
			}
			if next == nil || j.at < next.at || (j.at == next.at && j.seq < next.seq) {
				next = j
			}
		}
		if next == nil {
			break
		}
		c.now = next.at
		if next.interval > 0 {
			next.at += next.interval
		} else {
			next.dead = true
		}
		next.fn(c.now)
	}
	c.now = target
}

// TestControlPlaneOnFakeWallClock drives the poll→rank→map→deploy loop
// on a manually advanced clock and checks the full control-loop
// contract without any real timers: deployments happen DeployDelay
// after each poll, the mapping demotes the heavy cluster, and the
// latency histogram records every deployment.
func TestControlPlaneOnFakeWallClock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp := NewDataplane(cfg, true)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)

	var deployed []*Decision
	cp.OnDeploy = func(dec *Decision) { deployed = append(deployed, dec) }
	cp.Start()
	defer cp.Stop()

	// One dominant aggregate (a tight flood) plus background noise. The
	// flood's slot is read after all traffic, once cluster merges have
	// settled.
	for i := 1; i < 20; i++ {
		assign(dp, mkPkt(i))
	}
	for i := 0; i < 200; i++ {
		flood := mkPkt(0)
		flood.Length = 1400
		assign(dp, flood)
	}
	heavy := assign(dp, mkPkt(0)).Cluster

	// Nothing may deploy before the first poll tick completes its delay.
	clk.advance(cfg.PollInterval + cfg.DeployDelay - 1)
	if got := cp.Deployments(); got != 0 {
		t.Fatalf("deployed %d times before poll+delay elapsed", got)
	}
	clk.advance(1)
	if got := cp.Deployments(); got != 1 {
		t.Fatalf("deployments = %d after poll+delay, want 1", got)
	}
	if len(deployed) != 1 {
		t.Fatalf("OnDeploy observed %d decisions, want 1", len(deployed))
	}
	dec := deployed[0]
	if dec.At != cfg.PollInterval || dec.DeployedAt != cfg.PollInterval+cfg.DeployDelay {
		t.Fatalf("decision times At=%v DeployedAt=%v", dec.At, dec.DeployedAt)
	}
	if lowest := dp.Config().NumQueues - 1; dp.QueueFor(heavy) != lowest {
		t.Fatalf("heavy cluster in queue %d, want lowest priority %d", dp.QueueFor(heavy), lowest)
	}

	// Nine more idle polls: the loop keeps deploying (empty snapshots
	// are impossible here — clusters persist until reseed).
	clk.advance(9 * cfg.PollInterval)
	if got := cp.Deployments(); got != 10 {
		t.Fatalf("deployments = %d after 10 polls, want 10", got)
	}

	// The latency histogram saw every deployment at exactly DeployDelay.
	h := cp.DeployLatency()
	if h.Count != 10 {
		t.Fatalf("latency histogram count = %d, want 10", h.Count)
	}
	if h.Sum != 10*int64(cfg.DeployDelay) {
		t.Fatalf("latency sum = %d, want %d", h.Sum, 10*int64(cfg.DeployDelay))
	}
	if h.Max != int64(cfg.DeployDelay) {
		t.Fatalf("latency max = %d, want %d", h.Max, int64(cfg.DeployDelay))
	}

	// The ring keeps newest-first history, consistent with LastDecision.
	recent := cp.Recent(3)
	if len(recent) != 3 {
		t.Fatalf("Recent(3) returned %d decisions", len(recent))
	}
	if recent[0] != cp.LastDecision() {
		t.Fatal("Recent(0) is not the last decision")
	}
	if !(recent[0].At > recent[1].At && recent[1].At > recent[2].At) {
		t.Fatalf("Recent not newest-first: %v %v %v", recent[0].At, recent[1].At, recent[2].At)
	}

	// Stop cancels the loop: no more polls fire.
	cp.Stop()
	clk.advance(5 * cfg.PollInterval)
	if got := cp.Deployments(); got != 10 {
		t.Fatalf("deployments = %d after Stop, want 10", got)
	}
}

// TestControlPlaneRecentRingWraps fills the deployment ring past its
// capacity and checks it keeps only the newest deployHistory decisions.
func TestControlPlaneRecentRingWraps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 10 * eventsim.Millisecond
	cfg.DeployDelay = eventsim.Millisecond
	dp := NewDataplane(cfg, false)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)
	assign(dp, mkPkt(1))
	cp.Start()
	defer cp.Stop()

	const polls = deployHistory + 17
	clk.advance(eventsim.Time(polls)*cfg.PollInterval + cfg.DeployDelay)
	if got := cp.Deployments(); got != polls {
		t.Fatalf("deployments = %d, want %d", got, polls)
	}
	all := cp.Recent(2 * deployHistory)
	if len(all) != deployHistory {
		t.Fatalf("Recent returned %d, want ring capacity %d", len(all), deployHistory)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].At <= all[i].At {
			t.Fatalf("ring order broken at %d: %v <= %v", i, all[i-1].At, all[i].At)
		}
	}
	if all[0] != cp.LastDecision() {
		t.Fatal("ring head is not the last decision")
	}
}
