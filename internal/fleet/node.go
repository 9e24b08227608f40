package fleet

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
)

// NodeConfig parameterizes one fleet vantage point.
type NodeConfig struct {
	// Slots and NumQueues mirror the node's structural config
	// (MaxClusters / strict-priority queue count); the local fallback
	// ranking and deploy validation use them.
	Slots     int
	NumQueues int
}

// Shape derives the coordinator's and a node's structural settings from
// the pipeline Config every node of the fleet runs, mirroring core's own
// NumQueues defaulting: both must size their slots and queues exactly
// like the pipelines they serve.
func Shape(cfg core.Config) (CoordinatorConfig, NodeConfig) {
	slots, queues := cfg.Clustering.MaxClusters, cfg.NumQueues
	if queues == 0 {
		queues = slots
	}
	return CoordinatorConfig{Slots: slots, NumQueues: queues, Ranking: cfg.Ranking, Distance: cfg.Clustering.Distance},
		NodeConfig{Slots: slots, NumQueues: queues}
}

// Node is the fleet-mode core.Ranker: on every poll it publishes the
// node's freshly polled snapshot to the coordinator and deploys the
// newest global ranking — or, past the staleness bound, a locally
// computed one. The bound is 3x the live PollInterval, in the node's
// clock, re-read every poll so a Reconfigure moves it; it has no knob.
//
// The fallback is sticky in what it *reports*: once engaged, Source()
// and RankingDegraded() keep saying fallback until a fresh fleet
// deployment actually applies, so /health shows exactly which nodes a
// partition cut off and for how long. The fallback *behavior* is
// re-derived every poll (fresh local ranking over the current window),
// which generalizes PR 5's fail-open: that machinery degrades to
// uniform priority when the loop itself is dead; this one degrades to
// single-node ACC-Turbo when only the coordinator is gone. The two
// compose — a partitioned node whose loop then stalls still fails open.
//
// Rank runs inside the control plane's Step (one caller at a time); the
// transport handler runs on the delivery context. A mutex covers the
// handoff between them.
type Node struct {
	id  uint32
	tr  *NodeEnd
	now func() eventsim.Time
	cfg NodeConfig

	mu         sync.Mutex
	seq        uint64
	deploy     *Deploy       // newest applied-or-applicable global deployment
	deployAt   eventsim.Time // node-clock arrival time of deploy
	staleAfter eventsim.Time // the bound the last poll ran under; 0 before it
	fallback   atomic.Bool   // sticky degradation flag (see above)

	// Counters, readable from any goroutine.
	published     atomic.Uint64
	publishErrors atomic.Uint64
	fleetDeploys  atomic.Uint64
	localPolls    atomic.Uint64
	fallbacks     atomic.Uint64
	badDeploys    atomic.Uint64
}

// NewNode builds a fleet node ranker and registers its deploy handler
// on tr. now must read the same clock that drives the node's control
// plane (the engine clock in simulation, the wall clock in real time).
func NewNode(id uint32, tr *NodeEnd, now func() eventsim.Time, cfg NodeConfig) (*Node, error) {
	if cfg.Slots <= 0 || cfg.NumQueues <= 0 {
		return nil, fmt.Errorf("fleet: node needs positive Slots (%d) and NumQueues (%d)", cfg.Slots, cfg.NumQueues)
	}
	n := &Node{id: id, tr: tr, now: now, cfg: cfg}
	n.fallback.Store(true) // until the first deployment arrives
	tr.HandleNode(id, n.onDeploy)
	return n, nil
}

// onDeploy ingests a coordinator broadcast. Mis-sized maps (a
// coordinator configured for different slot geometry) are counted and
// ignored — the node would rather keep a good ranking than apply a wrong
// one. An epoch no newer than the held one is ignored too, unless the
// held one has aged past the staleness bound: then the node is on its
// fallback anyway, and the sender is a restarted coordinator counting
// from 1 again, not a delayed duplicate.
func (n *Node) onDeploy(frame []byte) {
	dp, err := readDeploy(verified(frame))
	if err != nil || len(dp.QueueOf) != n.cfg.Slots {
		n.badDeploys.Add(1)
		return
	}
	for _, q := range dp.QueueOf {
		if q < 0 || q >= n.cfg.NumQueues {
			n.badDeploys.Add(1)
			return
		}
	}
	now := n.now()
	n.mu.Lock()
	if n.deploy == nil || dp.Epoch > n.deploy.Epoch || (n.staleAfter > 0 && now-n.deployAt > n.staleAfter) {
		n.deploy = dp
		n.deployAt = now
	}
	n.mu.Unlock()
}

// Rank implements core.Ranker: publish the window snapshot, then decide
// under the newest global deployment or the local fallback.
func (n *Node) Rank(now eventsim.Time, infos []cluster.Info, prev []int, rt core.RuntimeConfig) *core.Decision {
	n.seq++
	err := n.tr.ToCoordinator(n.id, EncodeSnapshot(&Snapshot{
		Node:  n.id,
		Seq:   n.seq,
		At:    now,
		Infos: infos,
	}))
	if err != nil {
		n.publishErrors.Add(1)
	} else {
		n.published.Add(1)
	}

	staleAfter := 3 * rt.PollInterval

	n.mu.Lock()
	n.staleAfter = staleAfter
	dp, at := n.deploy, n.deployAt
	n.mu.Unlock()

	if dp != nil && now-at <= staleAfter {
		// Fleet mode: deploy the coordinator's map. The decision keeps
		// the *local* window snapshot next to the *global* ranks, which
		// is the interpretable view an operator wants: "here is what I
		// saw, here is why the fleet demoted slot 3 anyway".
		n.fallback.Store(false)
		n.fleetDeploys.Add(1)
		return &core.Decision{
			At:         now,
			DeployedAt: now + rt.DeployDelay,
			Clusters:   infos,
			Rank:       slices.Clone(dp.Rank),
			QueueOf:    slices.Clone(dp.QueueOf),
		}
	}

	// Fallback: the coordinator is unreachable (or has never spoken) —
	// rank locally, exactly the single-node policy, and latch the
	// degradation flag until a fleet deployment applies again.
	if n.fallback.CompareAndSwap(false, true) {
		n.fallbacks.Add(1)
	}
	n.localPolls.Add(1)
	return core.RankDecision(rt.Ranking, infos, n.cfg.Slots, n.cfg.NumQueues, prev, now, now+rt.DeployDelay)
}

// Source implements core.Ranker: "fleet" while deploying the global
// ranking, "fleet-fallback:local" while degraded.
func (n *Node) Source() string {
	if n.fallback.Load() {
		return "fleet-fallback:local"
	}
	return "fleet"
}

// RankingDegraded implements the Health probe: true while on local
// fallback (sticky until the next fleet deployment applies).
func (n *Node) RankingDegraded() bool { return n.fallback.Load() }

// NodeStats is a point-in-time snapshot of the node's fleet counters.
type NodeStats struct {
	// Published / PublishErrors count snapshot publishes.
	Published     uint64
	PublishErrors uint64
	// FleetPolls counts polls decided by a global deployment;
	// LocalPolls counts polls decided by the local fallback.
	FleetPolls uint64
	LocalPolls uint64
	// FallbackEngagements counts fleet→fallback transitions (a
	// partition engages it once, however long it lasts).
	FallbackEngagements uint64
	// BadDeploys counts coordinator frames rejected (corrupt,
	// mis-sized, out-of-range queues).
	BadDeploys uint64
	// Epoch is the newest global epoch seen (0 before any).
	Epoch uint64
}

// Stats snapshots the node's counters, from any goroutine.
func (n *Node) Stats() NodeStats {
	s := NodeStats{
		Published:           n.published.Load(),
		PublishErrors:       n.publishErrors.Load(),
		FleetPolls:          n.fleetDeploys.Load(),
		LocalPolls:          n.localPolls.Load(),
		FallbackEngagements: n.fallbacks.Load(),
		BadDeploys:          n.badDeploys.Load(),
	}
	n.mu.Lock()
	if n.deploy != nil {
		s.Epoch = n.deploy.Epoch
	}
	n.mu.Unlock()
	return s
}
