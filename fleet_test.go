package accturbo

import (
	"strings"
	"testing"
	"time"

	"accturbo/internal/fleet"
)

func fleetCfg() FleetConfig {
	cfg := HardwareConfig()
	cfg.Clustering.SliceInit = true
	cfg.PollInterval = FromDuration(2 * time.Millisecond)
	cfg.DeployDelay = FromDuration(500 * time.Microsecond)
	cfg.ReseedInterval = 0
	return FleetConfig{Nodes: 3, Node: cfg}
}

// fleetDriver feeds every node of a fleet on one virtual timeline that
// starts at zero and only moves forward.
type fleetDriver struct {
	t  *testing.T
	f  *Fleet
	at time.Duration
}

// until feeds each node ten packets every 100 µs of virtual time until
// done holds, and fails once a virtual second passes without it.
func (d *fleetDriver) until(what string, done func() bool) {
	d.t.Helper()
	for deadline := d.at + time.Second; !done(); d.at += 100 * time.Microsecond {
		if d.at > deadline {
			for n := 0; n < d.f.Nodes(); n++ {
				d.t.Logf("node %d: health=%+v stats=%+v", n, d.f.Node(n).Health().Control, d.f.NodeStats(n))
			}
			d.t.Fatalf("%s: not reached within a virtual second; coordinator %+v", what, d.f.CoordinatorStats())
		}
		for n := 0; n < d.f.Nodes(); n++ {
			for i := 0; i < 10; i++ {
				d.f.Node(n).Process(d.at, benignPacket(n*1000+i))
			}
		}
	}
}

// every holds when cond holds on every node.
func (d *fleetDriver) every(cond func(n int) bool) func() bool {
	return func() bool {
		for n := 0; n < d.f.Nodes(); n++ {
			if !cond(n) {
				return false
			}
		}
		return true
	}
}

// ranksOn reports whether node n ranks from source, degraded or not.
func (d *fleetDriver) ranksOn(source string, degraded bool) func(n int) bool {
	return func(n int) bool {
		h := d.f.Node(n).Health()
		return h.Control.RankSource == source && h.Degraded == degraded
	}
}

func newFleetDriver(t *testing.T, cfg FleetConfig) *fleetDriver {
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return &fleetDriver{t: t, f: f}
}

// TestFleetConverges: with traffic flowing on every node, the fleet
// deploys a global ranking and each node's health reports RankSource
// "fleet" with the degraded bit clear.
func TestFleetConverges(t *testing.T) {
	d := newFleetDriver(t, fleetCfg())
	f := d.f
	if f.Nodes() != 3 {
		t.Fatalf("fleet has %d nodes, want 3", f.Nodes())
	}
	d.until("convergence", d.every(d.ranksOn("fleet", false)))

	cs := f.CoordinatorStats()
	if cs.Nodes != 3 || cs.Epoch == 0 {
		t.Fatalf("coordinator stats %+v, want 3 nodes and a nonzero epoch", cs)
	}
	if dec := f.LastGlobalDecision(); dec == nil {
		t.Fatal("no global decision after convergence")
	}
	if len(f.MergedClusters()) == 0 {
		t.Fatal("empty merged view after traffic on every node")
	}
}

// TestFleetPartitionDegrades: cutting the coordinator link flips every
// node to the sticky local fallback ("fleet-fallback:local", degraded
// bit set) — never to undefended FIFO — and healing recovers "fleet".
func TestFleetPartitionDegrades(t *testing.T) {
	d := newFleetDriver(t, fleetCfg()) // 2 ms polls: a 6 ms stale bound
	f := d.f
	d.until("initial convergence", d.every(d.ranksOn("fleet", false)))
	f.SetLink(false)
	d.until("partition fallback", d.every(d.ranksOn("fleet-fallback:local", true)))
	// Degraded nodes still rank: the fallback is single-node ACC-Turbo.
	for n := 0; n < f.Nodes(); n++ {
		if st := f.NodeStats(n); st.LocalPolls == 0 {
			t.Fatalf("node %d: no local fallback polls while partitioned: %+v", n, st)
		}
	}
	f.SetLink(true)
	d.until("recovery after heal", d.every(d.ranksOn("fleet", false)))
	for n := 0; n < f.Nodes(); n++ {
		if st := f.NodeStats(n); st.FallbackEngagements == 0 {
			t.Fatalf("node %d: partition left no fallback engagement: %+v", n, st)
		}
	}
}

// TestFleetStaleBoundTracksReconfigure: the stale bound is 3x the live
// poll interval, not 3x the one the fleet was built with.
// Stretching the interval twentyfold leaves every deployment one new
// interval old at the next poll — far past the old bound, a third of the
// new one — and the nodes must stay on the fleet ranking throughout.
func TestFleetStaleBoundTracksReconfigure(t *testing.T) {
	cfg := fleetCfg()
	cfg.Nodes = 2
	cfg.Node.PollInterval = FromDuration(5 * time.Millisecond)
	d := newFleetDriver(t, cfg)
	f := d.f
	polls := func(n int) uint64 { st := f.NodeStats(n); return st.FleetPolls + st.LocalPolls }
	d.until("convergence", d.every(func(n int) bool { return f.Node(n).Health().Control.RankSource == "fleet" }))

	slow := FromDuration(100 * time.Millisecond)
	var before [2]FleetNodeStats
	for n := range before {
		if _, err := f.Node(n).Reconfigure(RuntimePatch{PollInterval: &slow}); err != nil {
			t.Fatal(err)
		}
		before[n] = f.NodeStats(n)
	}
	d.until("four polls at the new interval", d.every(func(n int) bool {
		return polls(n) >= before[n].FleetPolls+before[n].LocalPolls+4
	}))
	for n := range before {
		st, h := f.NodeStats(n), f.Node(n).Health()
		if st.LocalPolls != before[n].LocalPolls || h.Control.RankSource != "fleet" || h.Degraded {
			t.Fatalf("node %d fell back after the poll interval grew: %+v -> %+v, source %q",
				n, before[n], st, h.Control.RankSource)
		}
	}
}

// TestFleetRefusesWhatItCannotHonour: a fleet installs its own ranker and
// runs every node on its one virtual clock, so a configuration that
// brings a ranker or asks for the sharded wall-clock pipeline is refused
// rather than quietly changed.
func TestFleetRefusesWhatItCannotHonour(t *testing.T) {
	for _, c := range []struct {
		mutate func(*FleetConfig)
		want   string
	}{
		{func(c *FleetConfig) { c.Nodes = 0 }, "at least 1 node"},
		{func(c *FleetConfig) { c.Node.Ranker = new(fleet.Node) }, "Ranker must be nil"},
		{func(c *FleetConfig) { c.Node.Shards = 4 }, "Node.Shards is 4"},
		{func(c *FleetConfig) { c.Node.PollInterval = 0 }, "PollInterval"},
	} {
		cfg := fleetCfg()
		c.mutate(&cfg)
		if f, err := NewFleet(cfg); err == nil || f != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("NewFleet = (%v, %v), want only an error naming %q", f, err, c.want)
		}
	}
}
