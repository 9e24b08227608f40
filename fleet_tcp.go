package accturbo

import (
	"fmt"
	"time"

	"accturbo/internal/core"
	"accturbo/internal/fleet"
)

// TCP fleet re-exports, so multi-process operators need no internal
// imports for the common path.
type (
	// FleetTCPNodeTransportStats is the node-side socket counter
	// snapshot (dials, reconnects, drops, CRC resets).
	FleetTCPNodeTransportStats = fleet.NodeLinkStats
	// FleetTCPCoordinatorTransportStats is the listener-side socket
	// counter snapshot (accepts, sheds, drops, CRC resets).
	FleetTCPCoordinatorTransportStats = fleet.CoordinatorLinkStats
)

// FleetTCPCoordinatorConfig parameterizes NewFleetTCPCoordinator.
type FleetTCPCoordinatorConfig struct {
	// ListenAddr is the TCP address nodes dial (":0" picks a free port;
	// read it back with Addr).
	ListenAddr string
	// Node carries the fleet's structural settings — MaxClusters,
	// NumQueues, Ranking, Distance must match what every node runs, for
	// the same reason FleetConfig shares one Config: slot identity is
	// what makes the slot-wise merge meaningful.
	Node Config
}

// FleetTCPCoordinator is the coordinator of a fleet: the
// merge-and-broadcast Coordinator behind a real TCP listener. Nodes
// connect with NewFleetTCP from their own processes (or hosts).
type FleetTCPCoordinator struct {
	tr    *fleet.TCPCoordinatorTransport
	coord *fleet.Coordinator
}

// NewFleetTCPCoordinator starts a coordinator listening on
// cfg.ListenAddr.
func NewFleetTCPCoordinator(cfg FleetTCPCoordinatorConfig) (*FleetTCPCoordinator, error) {
	if err := cfg.Node.Validate(); err != nil {
		return nil, err
	}
	tr, err := fleet.ListenTCP(cfg.ListenAddr, core.NewWallClock())
	if err != nil {
		return nil, err
	}
	shape, _ := fleet.Shape(cfg.Node)
	coord, err := fleet.NewCoordinator(tr.CoordinatorEnd, shape)
	if err != nil {
		tr.Close()
		return nil, err
	}
	return &FleetTCPCoordinator{tr: tr, coord: coord}, nil
}

// Addr returns the listener's bound address — what nodes dial.
func (c *FleetTCPCoordinator) Addr() string { return c.tr.Addr() }

// Stats returns the coordinator's merge/broadcast counters.
func (c *FleetTCPCoordinator) Stats() FleetCoordinatorStats { return c.coord.Stats() }

// TransportStats returns the socket layer's counters.
func (c *FleetTCPCoordinator) TransportStats() FleetTCPCoordinatorTransportStats {
	return c.tr.Stats()
}

// NodeAges reports, per connected node id, how long ago its last frame
// (snapshot or heartbeat) arrived — the per-node liveness view /health
// serves. A node that disconnected is absent.
func (c *FleetTCPCoordinator) NodeAges() map[uint32]time.Duration { return c.tr.LastSeen() }

// LastGlobalDecision returns the most recently broadcast global
// decision (nil before the first node reports).
func (c *FleetTCPCoordinator) LastGlobalDecision() *Decision { return c.coord.LastDecision() }

// Close stops the listener and tears down every node connection;
// idempotent, returns after all transport goroutines exit.
func (c *FleetTCPCoordinator) Close() { c.tr.Close() }

// FleetTCPConfig parameterizes NewFleetTCP.
type FleetTCPConfig struct {
	// CoordinatorAddr is the coordinator's TCP address (its ListenAddr,
	// or a chaos proxy in front of it).
	CoordinatorAddr string
	// NodeID identifies this vantage point: >= 1 and unique across the
	// fleet (the coordinator keys snapshots and connections by it).
	NodeID uint32
	// Node is this node's pipeline configuration; structural settings
	// must match the coordinator's. Node.Ranker must be nil.
	Node Config
}

// FleetTCPNode is one vantage point of a multi-process fleet: a full
// real-time Defense whose ranker publishes snapshots to, and applies
// deployments from, a FleetTCPCoordinator over TCP. Construction does
// not wait for the connection — the node starts on its local fallback
// ranking and upgrades to "fleet" when the link (and the first
// deployment) lands, which is also how it rides out coordinator
// outages: the transport reconnects with seeded backoff while the
// ranker degrades to fleet-fallback:local, never to undefended FIFO,
// once no deployment has landed for 3x the live PollInterval. Its
// timers are fixed: a heartbeat each way every second, a coordinator
// link given up after 4 s of silence or a write stuck for 2 s, and
// reconnects from 50 ms doubling to 5 s.
type FleetTCPNode struct {
	tr     *fleet.TCPTransport
	ranker *fleet.Node
	d      *Defense
}

// NewFleetTCP starts a fleet node dialing cfg.CoordinatorAddr.
func NewFleetTCP(cfg FleetTCPConfig) (*FleetTCPNode, error) {
	if cfg.Node.Ranker != nil {
		return nil, fmt.Errorf("accturbo: a fleet node's Config.Ranker must be nil; the fleet installs its own ranker")
	}
	tr, err := fleet.DialTCP(cfg.CoordinatorAddr, cfg.NodeID, core.NewWallClock())
	if err != nil {
		return nil, err
	}
	n := &FleetTCPNode{tr: tr}
	_, shape := fleet.Shape(cfg.Node)
	n.d, err = newRealTime(cfg.Node, func(now func() VirtualTime) (_ core.Ranker, err error) {
		n.ranker, err = fleet.NewNode(cfg.NodeID, tr.NodeEnd, now, shape)
		return n.ranker, err
	})
	if err != nil {
		tr.Close()
		return nil, err
	}
	return n, nil
}

// Defense returns the node's pipeline. Do not Close it directly;
// FleetTCPNode.Close owns the shutdown ordering.
func (n *FleetTCPNode) Defense() *Defense { return n.d }

// Stats returns the node's fleet ranker counters (publishes, fleet vs
// fallback polls, rejected deploys).
func (n *FleetTCPNode) Stats() FleetNodeStats { return n.ranker.Stats() }

// TransportStats returns the socket layer's counters.
func (n *FleetTCPNode) TransportStats() FleetTCPNodeTransportStats { return n.tr.Stats() }

// Connected reports whether the coordinator link is up right now. Note
// the ranking source lags this by design: a freshly connected node
// stays on fallback until the next deployment lands, and a freshly
// disconnected one rides the last deployment until it is 3x the live
// PollInterval old.
func (n *FleetTCPNode) Connected() bool { return n.tr.Connected() }

// Close stops the node: pipeline first — after which the ranker cannot
// publish — then the transport. Idempotent; returns after every
// transport goroutine exits.
func (n *FleetTCPNode) Close() {
	n.d.Close()
	n.tr.Close()
}
