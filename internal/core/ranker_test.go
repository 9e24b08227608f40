package core

import (
	"testing"

	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// TestRankDecisionMatchesLocalStep pins the seam: a ControlPlane built
// without a Ranker must deploy exactly what the pure RankDecision
// helper computes from the same snapshot — the refactor moved the
// rank→map body, it must not have changed it.
func TestRankDecisionMatchesLocalStep(t *testing.T) {
	eng := eventsim.New()
	cfg := DefaultConfig()
	cfg = cfg.withDefaults()
	dp := NewDataplane(cfg, false)
	cp := newCP(t, dp, SimClock{Eng: eng}, cfg)
	cp.Start()

	mk := func(sport uint16, n int) {
		for i := 0; i < n; i++ {
			p := &packet.Packet{
				SrcIP: packet.V4(10, 0, 0, 1), DstIP: packet.V4(10, 0, byte(i), 2),
				Protocol: packet.ProtoUDP, SrcPort: sport, DstPort: 53,
				TTL: 64, Length: 500,
			}
			dp.Classify(p)
		}
	}
	mk(1111, 3)
	mk(2222, 40)

	// Rank the same snapshot by hand before Step consumes the window.
	infos := dp.Snapshot()
	want := RankDecision(cfg.Ranking, infos, cfg.Clustering.MaxClusters, cfg.NumQueues,
		*dp.queueMap.Load(), eng.Now(), eng.Now()+cfg.DeployDelay)

	got := cp.Step(eng.Now())
	if got == nil {
		t.Fatal("Step returned nil with live clusters")
	}
	if len(got.QueueOf) != len(want.QueueOf) {
		t.Fatalf("queue map length %d != %d", len(got.QueueOf), len(want.QueueOf))
	}
	for i := range want.QueueOf {
		if got.QueueOf[i] != want.QueueOf[i] {
			t.Fatalf("slot %d: Step queue %d, RankDecision queue %d", i, got.QueueOf[i], want.QueueOf[i])
		}
	}
	for i := range want.Rank {
		if got.Rank[i] != want.Rank[i] {
			t.Fatalf("slot %d: Step rank %v, RankDecision rank %v", i, got.Rank[i], want.Rank[i])
		}
	}
}

// fixedRanker deploys a constant map and reports a degraded source —
// the shape of a fleet node on fallback.
type fixedRanker struct {
	queueOf  []int
	calls    int
	degraded bool
}

func (f *fixedRanker) Rank(now eventsim.Time, infos []cluster.Info, prev []int, rt RuntimeConfig) *Decision {
	f.calls++
	m := make([]int, len(prev))
	copy(m, f.queueOf)
	return &Decision{At: now, DeployedAt: now + rt.DeployDelay, Clusters: infos, Rank: make([]float64, len(prev)), QueueOf: m}
}
func (f *fixedRanker) Source() string        { return "test-fixed" }
func (f *fixedRanker) RankingDegraded() bool { return f.degraded }

// TestConfigRankerInjection verifies the seam end to end: a custom
// Ranker receives every poll, its map deploys after DeployDelay, and
// Health surfaces its Source and degraded bit plus the new
// ConfigGeneration/Ranking fields.
func TestConfigRankerInjection(t *testing.T) {
	eng := eventsim.New()
	cfg := DefaultConfig()
	fr := &fixedRanker{queueOf: []int{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}}
	cfg.Ranker = fr
	_, turbo := attach(t, eng, 10e6, nil, cfg)

	p := &packet.Packet{
		SrcIP: packet.V4(10, 0, 0, 1), DstIP: packet.V4(10, 0, 0, 2),
		Protocol: packet.ProtoUDP, SrcPort: 9, DstPort: 53, TTL: 64, Length: 500,
	}
	turbo.dp.Classify(p)
	eng.RunUntil(eventsim.Second)

	if fr.calls == 0 {
		t.Fatal("injected ranker never invoked")
	}
	if got := turbo.QueueOf(0); got != 3 {
		t.Fatalf("cluster 0 in queue %d, want the injected map's 3", got)
	}
	h := turbo.ControlPlane().Health()
	if h.RankSource != "test-fixed" {
		t.Fatalf("RankSource %q, want test-fixed", h.RankSource)
	}
	if h.Ranking != cfg.Ranking.String() {
		t.Fatalf("Ranking %q, want %q", h.Ranking, cfg.Ranking.String())
	}
	if h.ConfigGeneration != 1 {
		t.Fatalf("ConfigGeneration %d, want 1", h.ConfigGeneration)
	}
	if h.Degraded {
		t.Fatal("not degraded yet")
	}
	fr.degraded = true
	if h := turbo.ControlPlane().Health(); !h.Degraded {
		t.Fatal("degraded ranker must surface in Health.Degraded")
	}
}
