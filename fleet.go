package accturbo

import (
	"fmt"

	"accturbo/internal/eventsim"
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
	// Nodes is the number of vantage points (>= 1), each a full Defense
	// pipeline; only the ranking is global.
	Nodes int
	// Node is every node's configuration: slot identity is what makes the
	// coordinator's slot-wise merge meaningful, so the structural
	// settings must match. Ranker must be nil (the fleet installs its
	// own) and Shards at most 1: every node is a deterministic pipeline
	// on the fleet's one virtual clock. A node with no fleet deployment
	// for 3x its live PollInterval ranks its own snapshot (never
	// undefended FIFO), so a Reconfigure moves that bound with it.
	Node Config
}

// Fleet runs N Defense pipelines as one distributed ACC-Turbo
// deployment in one process: the fleet experiment's wiring of one event
// engine, one coordinator and N nodes speaking the fleet protocol over
// the simulated link. Every node publishes its per-window snapshot; the
// coordinator merges them slot-wise and broadcasts one global
// cluster→queue mapping, so an aggregate spread across nodes — the case
// single-node ranking misranks — is demoted by its fleet-wide rate.
//
// The nodes are deterministic Defenses sharing one virtual clock:
// Process(at, p) on any node advances it, running every poll and frame
// due by at, so a run is reproducible to the byte. Feed the fleet from
// one goroutine, with timestamps that do not decrease across it; Health,
// Metrics, NodeStats, CoordinatorStats, MergedClusters and
// LastGlobalDecision are safe from any goroutine. A node's RankSource is
// "fleet" while it deploys the global ranking and "fleet-fallback:local"
// (Degraded set) while it ranks alone: until the first deployment lands,
// and while partitioned.
type Fleet struct {
	link    *fleet.SimLink
	coord   *fleet.Coordinator
	nodes   []*Defense
	rankers []*fleet.Node
}

// NewFleet builds a fleet; its nodes dial the coordinator at once.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	switch {
	case cfg.Nodes < 1:
		return nil, fmt.Errorf("accturbo: fleet needs at least 1 node, got %d", cfg.Nodes)
	case cfg.Node.Ranker != nil:
		return nil, fmt.Errorf("accturbo: a fleet node's Config.Ranker must be nil; the fleet installs its own ranker")
	case cfg.Node.Shards > 1:
		return nil, fmt.Errorf("accturbo: fleet nodes share one virtual clock and run unsharded; Node.Shards is %d", cfg.Node.Shards)
	}
	eng := eventsim.New()
	link := fleet.NewSimLink(eng)
	coordShape, nodeShape := fleet.Shape(cfg.Node)
	coord, err := fleet.NewCoordinator(link.Coordinator(), coordShape)
	if err != nil {
		return nil, err
	}
	f := &Fleet{link: link, coord: coord}
	for i := uint32(1); i <= uint32(cfg.Nodes); i++ {
		rk, err := fleet.NewNode(i, link.Node(i), eng.Now, nodeShape)
		if err != nil {
			return nil, err
		}
		node := cfg.Node
		node.Ranker = rk
		d, err := newDeterministic(node, eng)
		if err != nil {
			return nil, err
		}
		f.nodes, f.rankers = append(f.nodes, d), append(f.rankers, rk)
	}
	return f, nil
}

// Nodes returns the number of vantage points.
func (f *Fleet) Nodes() int { return len(f.nodes) }

// Node returns vantage point i's Defense pipeline.
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

// SetLink partitions (false) or heals (true) the link; the coordinator
// keeps running. Partitioned, frames are lost and dials refused, so the
// nodes fall back once their bound expires; healed, they redial on their
// backoff. Call it from the feeding goroutine.
func (f *Fleet) SetLink(up bool) { f.link.SetUp(up) }

// Close stops every node's control loop. Idempotent.
func (f *Fleet) Close() {
	for _, d := range f.nodes {
		d.Close()
	}
}
