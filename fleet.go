package accturbo

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	// Node.Ranker must be nil (the fleet installs its own). A node that
	// has seen no fleet deployment for 3x its live PollInterval falls
	// back to ranking its own snapshot locally (never to undefended
	// FIFO), so a Reconfigure moves that bound with it.
	Node Config
}

// Fleet runs N Defense pipelines as one distributed ACC-Turbo
// deployment in one process: a FleetTCPCoordinator on a loopback port
// and N FleetTCPNodes dialing it, the same two types a multi-process
// fleet is made of. Every node publishes its per-window cluster snapshot
// to the coordinator, which merges them slot-wise and broadcasts one
// global cluster→queue mapping back. An aggregate whose sources are
// spread across nodes — the case single-node clustering systematically
// misranks — is demoted by its fleet-wide rate on every node.
//
// Each node is a full real-time Defense: feed node i's traffic through
// Fleet.Node(i).Process / ObserveBatch from any goroutine, and
// inspect it with the usual Health/Metrics/Clusters accessors. A node's
// Health reports RankSource "fleet" while the coordinator is reachable
// and "fleet-fallback:local" (with the Degraded bit set) while
// partitioned — and for the first milliseconds after NewFleet, until its
// connection and the first deployment land. The links run
// FleetTCPNode's fixed timers on the wall clock.
type Fleet struct {
	nodes []*FleetTCPNode
	// coord is the running coordinator, or after SetLink(false) the
	// closed one, whose last counters and views stay readable.
	coord    atomic.Pointer[FleetTCPCoordinator]
	coordCfg FleetTCPCoordinatorConfig // what SetLink(true) starts again

	mu         sync.Mutex // orders SetLink against itself and Close
	up, closed bool
}

// NewFleet builds and starts a fleet.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("accturbo: fleet needs at least 1 node, got %d", cfg.Nodes)
	}
	coordCfg := FleetTCPCoordinatorConfig{ListenAddr: "127.0.0.1:0", Node: cfg.Node}
	coord, err := NewFleetTCPCoordinator(coordCfg)
	if err != nil {
		return nil, err
	}
	coordCfg.ListenAddr = coord.Addr()
	f := &Fleet{coordCfg: coordCfg, up: true}
	f.coord.Store(coord)
	for i := 0; i < cfg.Nodes; i++ {
		n, err := NewFleetTCP(FleetTCPConfig{
			CoordinatorAddr: coordCfg.ListenAddr,
			NodeID:          uint32(i + 1),
			Node:            cfg.Node,
		})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

// Nodes returns the number of vantage points.
func (f *Fleet) Nodes() int { return len(f.nodes) }

// Node returns vantage point i's Defense pipeline. Do not Close it
// directly; Fleet.Close owns the shutdown ordering.
func (f *Fleet) Node(i int) *Defense { return f.nodes[i].Defense() }

// NodeStats returns vantage point i's fleet counters (publishes,
// fleet vs fallback polls, rejected deploys).
func (f *Fleet) NodeStats(i int) FleetNodeStats { return f.nodes[i].Stats() }

// CoordinatorStats returns the coordinator's counters. They start over
// when SetLink(true) starts a new coordinator.
func (f *Fleet) CoordinatorStats() FleetCoordinatorStats { return f.coord.Load().Stats() }

// MergedClusters returns the fleet-wide slot-merged cluster snapshot —
// the coordinator's interpretability view across all vantage points.
func (f *Fleet) MergedClusters() []ClusterInfo { return f.coord.Load().MergedClusters() }

// LastGlobalDecision returns the most recently broadcast global
// decision (nil before the first node reports).
func (f *Fleet) LastGlobalDecision() *Decision { return f.coord.Load().LastGlobalDecision() }

// SetLink partitions (false) or heals (true) the fleet the way a real
// deployment loses and regains its coordinator. SetLink(false) closes
// the coordinator: publishes become counted drops, every node degrades
// to local ranking once its staleness bound expires, and its dialer
// keeps retrying with backoff. SetLink(true) starts a fresh coordinator
// on the same address — epochs and counters from zero, which the nodes
// adopt as soon as they reconnect — and fails only if that address
// cannot be bound again. Safe from any goroutine; a no-op when the link
// is already in the asked state or the fleet is closed.
func (f *Fleet) SetLink(up bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || up == f.up {
		return nil
	}
	if up {
		coord, err := NewFleetTCPCoordinator(f.coordCfg)
		if err != nil {
			return err
		}
		f.coord.Store(coord)
	} else {
		f.coord.Load().Close()
	}
	f.up = up
	return nil
}

// Close stops the fleet: every node first — pipeline, then its dialer —
// and the coordinator last, so a poll racing Close still finds a live
// transport (or gets a counted ErrClosed, never a panic). Idempotent.
func (f *Fleet) Close() {
	for _, n := range f.nodes {
		n.Close()
	}
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.coord.Load().Close()
}
