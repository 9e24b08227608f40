package accturbo

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func fleetCfg() FleetConfig {
	cfg := HardwareConfig()
	cfg.Clustering.SliceInit = true
	cfg.PollInterval = FromDuration(2 * time.Millisecond)
	cfg.DeployDelay = FromDuration(500 * time.Microsecond)
	cfg.ReseedInterval = 0
	return FleetConfig{Nodes: 3, Node: cfg}
}

// TestFleetConverges: with traffic flowing on every node, the fleet
// deploys a global ranking and each node's health reports RankSource
// "fleet" with the degraded bit clear.
func TestFleetConverges(t *testing.T) {
	f, err := NewFleet(fleetCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Nodes() != 3 {
		t.Fatalf("fleet has %d nodes, want 3", f.Nodes())
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		for n := 0; n < f.Nodes(); n++ {
			for i := 0; i < 50; i++ {
				f.Node(n).Process(0, benignPacket(n*1000+i))
			}
		}
		allFleet := true
		for n := 0; n < f.Nodes(); n++ {
			h := f.Node(n).Health()
			if h.Control.RankSource != "fleet" || h.Degraded {
				allFleet = false
			}
		}
		if allFleet {
			break
		}
		if time.Now().After(deadline) {
			for n := 0; n < f.Nodes(); n++ {
				t.Logf("node %d: health=%+v stats=%+v", n, f.Node(n).Health().Control, f.NodeStats(n))
			}
			t.Fatalf("fleet did not converge within 10s: coordinator %+v", f.CoordinatorStats())
		}
		time.Sleep(time.Millisecond)
	}

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
	f, err := NewFleet(fleetCfg()) // 2 ms polls: a 6 ms stale bound
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitFor := func(source string, degraded bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			for n := 0; n < f.Nodes(); n++ {
				for i := 0; i < 20; i++ {
					f.Node(n).Process(0, benignPacket(n*1000+i))
				}
			}
			ok := true
			for n := 0; n < f.Nodes(); n++ {
				h := f.Node(n).Health()
				if h.Control.RankSource != source || h.Degraded != degraded {
					ok = false
				}
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				for n := 0; n < f.Nodes(); n++ {
					t.Logf("node %d: %+v", n, f.Node(n).Health().Control)
				}
				t.Fatalf("%s: not reached within 10s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitFor("fleet", false, "initial convergence")
	f.SetLink(false)
	waitFor("fleet-fallback:local", true, "partition fallback")
	// Degraded nodes still rank: the fallback is single-node ACC-Turbo.
	for n := 0; n < f.Nodes(); n++ {
		if st := f.NodeStats(n); st.LocalPolls == 0 {
			t.Fatalf("node %d: no local fallback polls while partitioned: %+v", n, st)
		}
	}
	f.SetLink(true)
	waitFor("fleet", false, "recovery after heal")
	for n := 0; n < f.Nodes(); n++ {
		if st := f.NodeStats(n); st.FallbackEngagements == 0 {
			t.Fatalf("node %d: partition left no fallback engagement: %+v", n, st)
		}
	}
}

// TestFleetCloseWhilePublishing is the close-while-fleet-publish race
// gate, mirroring TestIngestCloseWhileOffering: producers hammer every
// node (forcing polls, hence snapshot publishes on the shared
// transport) while Close tears the fleet down. Any interleaving must
// resolve to a clean shutdown — no panic, no send on a closed channel,
// no deadlock — which -race plus the ErrClosed accounting verifies.
func TestFleetCloseWhilePublishing(t *testing.T) {
	for iter := 0; iter < 6; iter++ {
		f, err := NewFleet(fleetCfg())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for n := 0; n < f.Nodes(); n++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				d := f.Node(n)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					d.Process(0, benignPacket(n*10000+i))
					if i%8 == 0 {
						// Force a control-loop step: poll, rank, publish
						// to the coordinator — the racing send.
						d.Poll()
					}
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}(n)
		}
		time.Sleep(time.Duration(iter) * 500 * time.Microsecond)
		f.Close()
		close(stop)
		wg.Wait()
		f.Close() // idempotent
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
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	polls := func(n int) uint64 { st := f.NodeStats(n); return st.FleetPolls + st.LocalPolls }
	drive := func(what string, done func(n int) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for ok := false; !ok; time.Sleep(time.Millisecond) {
			ok = true
			for n := 0; n < f.Nodes(); n++ {
				f.Node(n).Process(0, benignPacket(n*1000))
				ok = ok && done(n)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: not reached within 10s", what)
			}
		}
	}
	drive("convergence", func(n int) bool { return f.Node(n).Health().Control.RankSource == "fleet" })

	slow := FromDuration(100 * time.Millisecond)
	var before [2]FleetNodeStats
	for n := range before {
		if _, err := f.Node(n).Reconfigure(RuntimePatch{PollInterval: &slow}); err != nil {
			t.Fatal(err)
		}
		before[n] = f.NodeStats(n)
	}
	drive("four polls at the new interval", func(n int) bool {
		return polls(n) >= before[n].FleetPolls+before[n].LocalPolls+4
	})
	for n := range before {
		st, h := f.NodeStats(n), f.Node(n).Health()
		if st.LocalPolls != before[n].LocalPolls || h.Control.RankSource != "fleet" || h.Degraded {
			t.Fatalf("node %d fell back after the poll interval grew: %+v -> %+v, source %q",
				n, before[n], st, h.Control.RankSource)
		}
	}
}
