package accturbo

import (
	"fmt"
	"sync"

	"accturbo/internal/core"
	"accturbo/internal/fleet"
)

// Fleet-facing re-exports, so fleet operators need no internal imports.
type (
	// FleetCoordinatorStats is the coordinator's counter snapshot.
	FleetCoordinatorStats = fleet.Stats
	// FleetNodeStats is one node's fleet counter snapshot.
	FleetNodeStats = fleet.NodeStats
)

// FleetConfig parameterizes NewFleet.
type FleetConfig struct {
	// Nodes is the number of vantage points (>= 1). Every node runs its
	// own full Defense pipeline; only the ranking is global.
	Nodes int
	// Node is the per-node pipeline configuration. Structural settings
	// (features, MaxClusters, NumQueues, SliceInit) must be identical
	// across the fleet — slot identity is what makes the coordinator's
	// slot-wise merge meaningful — so one Config covers all nodes.
	// Node.Ranker must be nil (the fleet installs its own).
	Node Config
	// StaleAfter is the partition-detection bound: a node that has not
	// seen a fleet deployment for this long falls back to ranking its
	// own snapshot locally (never to undefended FIFO). Zero defaults to
	// 3x Node.PollInterval.
	StaleAfter VirtualTime
	// TransportDepth bounds the in-process transport queue (<= 0
	// defaults to 256). Overflow drops frames the way a congested
	// control network would; the staleness bound absorbs the loss.
	TransportDepth int
}

// Fleet runs N Defense pipelines as one distributed ACC-Turbo
// deployment: every node publishes its per-window cluster snapshot to
// an in-process coordinator, which merges them slot-wise and broadcasts
// one global cluster→queue mapping back. An aggregate whose sources are
// spread across nodes — the case single-node clustering systematically
// misranks — is demoted by its fleet-wide rate on every node.
//
// Each node is a full real-time Defense: feed node i's traffic through
// Fleet.Node(i).Process / ObserveBatch from any goroutine, and
// inspect it with the usual Health/Metrics/Clusters accessors. A node's
// Health reports RankSource "fleet" while the coordinator is reachable
// and "fleet-fallback:local" (with the Degraded bit set) while
// partitioned.
type Fleet struct {
	tr      *fleet.ChanTransport
	coord   *fleet.Coordinator
	nodes   []*Defense
	rankers []*fleet.Node

	closeOnce sync.Once
}

// NewFleet builds and starts a fleet. It panics on an invalid
// configuration; NewFleetE is the error-returning variant.
func NewFleet(cfg FleetConfig) *Fleet {
	f, err := NewFleetE(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// NewFleetE is NewFleet returning configuration errors instead of
// panicking.
func NewFleetE(cfg FleetConfig) (*Fleet, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("accturbo: fleet needs at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Node.Ranker != nil {
		return nil, fmt.Errorf("accturbo: FleetConfig.Node.Ranker must be nil; the fleet installs its own ranker per node")
	}
	if err := cfg.Node.Validate(); err != nil {
		return nil, err
	}
	// Mirror the pipeline's own defaulting (core applies it inside the
	// constructors): the coordinator and rankers must size their slots
	// and queues exactly like the nodes they serve.
	if cfg.Node.NumQueues == 0 {
		cfg.Node.NumQueues = cfg.Node.Clustering.MaxClusters
	}
	staleAfter := cfg.StaleAfter
	if staleAfter <= 0 {
		staleAfter = 3 * cfg.Node.PollInterval
	}

	tr := fleet.NewChanTransport(cfg.TransportDepth)
	f := &Fleet{tr: tr}
	coord, err := fleet.NewCoordinator(tr, fleet.CoordinatorConfig{
		Slots:     cfg.Node.Clustering.MaxClusters,
		NumQueues: cfg.Node.NumQueues,
		Ranking:   cfg.Node.Ranking,
		Distance:  cfg.Node.Clustering.Distance,
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	f.coord = coord

	for i := 0; i < cfg.Nodes; i++ {
		// Replicates NewRealTimeDefenseE, with the ranker seam pointed
		// at the fleet: the clock must exist before the ranker (the
		// ranker stamps deployment arrivals with it) and the ranker
		// before the control plane.
		clock := core.NewWallClock()
		ranker, err := fleet.NewNode(uint32(i+1), tr, clock.Now, fleet.NodeConfig{
			Slots:      cfg.Node.Clustering.MaxClusters,
			NumQueues:  cfg.Node.NumQueues,
			StaleAfter: staleAfter,
		})
		if err != nil {
			clock.Close()
			f.Close()
			return nil, err
		}
		nodeCfg := cfg.Node
		nodeCfg.Ranker = ranker
		d := &Defense{
			cfg:   nodeCfg,
			clock: clock,
			dp:    core.NewDataplane(nodeCfg, true),
		}
		cp, err := core.NewControlPlaneE(d.dp, clock, nodeCfg)
		if err != nil {
			clock.Close()
			f.Close()
			return nil, err
		}
		d.cp = cp
		d.describe()
		f.nodes = append(f.nodes, d)
		f.rankers = append(f.rankers, ranker)
	}
	// Start the control loops only after every node is wired: the first
	// polls already publish snapshots, and a partially built fleet would
	// bake an asymmetric merge into the first epochs.
	for _, d := range f.nodes {
		d.cp.Start()
	}
	return f, nil
}

// Nodes returns the number of vantage points.
func (f *Fleet) Nodes() int { return len(f.nodes) }

// Node returns vantage point i's Defense pipeline. Do not Close it
// directly; Fleet.Close owns the shutdown ordering.
func (f *Fleet) Node(i int) *Defense { return f.nodes[i] }

// NodeStats returns vantage point i's fleet counters (publishes,
// fleet vs fallback polls, rejected deploys).
func (f *Fleet) NodeStats(i int) FleetNodeStats { return f.rankers[i].Stats() }

// CoordinatorStats returns the coordinator's counters.
func (f *Fleet) CoordinatorStats() FleetCoordinatorStats { return f.coord.Stats() }

// MergedClusters returns the fleet-wide slot-merged cluster snapshot —
// the coordinator's interpretability view across all vantage points.
func (f *Fleet) MergedClusters() []ClusterInfo { return f.coord.MergedView() }

// LastGlobalDecision returns the most recently broadcast global
// decision (nil before the first node reports).
func (f *Fleet) LastGlobalDecision() *Decision { return f.coord.LastDecision() }

// SetLink raises (true) or partitions (false) the coordinator link for
// the whole fleet: while down, snapshots and deployments are dropped
// and every node degrades to local ranking once its StaleAfter bound
// expires. Safe from any goroutine.
func (f *Fleet) SetLink(up bool) { f.tr.SetUp(up) }

// Close stops the fleet: every node's control plane first — after
// which no ranker can publish — and the shared transport last, so a
// poll racing Close still finds a live transport (or gets a counted
// ErrClosed, never a panic). Idempotent.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		for _, d := range f.nodes {
			d.Close()
		}
		f.tr.Close()
	})
}
