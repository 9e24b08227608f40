package fleet

import (
	"fmt"
	"slices"
	"sync"

	"accturbo/internal/cluster"
	"accturbo/internal/core"
)

// CoordinatorConfig parameterizes the fleet coordinator. Slots and
// NumQueues must match every node's structural config — slot identity
// is the SliceInit tiling, which is what makes slot-wise merging across
// vantage points meaningful (the same invariant the sharded dataplane
// relies on within one process).
type CoordinatorConfig struct {
	// Slots is the fleet-wide cluster slot count (MaxClusters).
	Slots int
	// NumQueues is the strict-priority queue count on every node.
	NumQueues int
	// Ranking is the global ranking algorithm (§5.1) applied to the
	// merged snapshot.
	Ranking core.Ranking
	// Distance recomputes merged cluster sizes (must match the nodes'
	// clustering distance; only the /Size rankings read it).
	Distance cluster.Distance
}

// Coordinator merges the latest snapshot from every node into one
// global cluster view and broadcasts the resulting ranking to the whole
// fleet. It recomputes on every snapshot received: with N nodes polling
// at the same interval that is N broadcasts per interval, each
// superseding the last by epoch — cheap (the merge is O(slots·nodes))
// and it keeps the coordinator stateless beyond "latest snapshot per
// node", so a restarted coordinator is one poll interval away from full
// fidelity.
type Coordinator struct {
	cfg CoordinatorConfig
	tr  *CoordinatorEnd

	mu     sync.Mutex
	latest map[uint32]*Snapshot
	// nodes is latest's keys in ascending order. A node's first snapshot
	// replaces the slice, never writes into it, so a broadcast can walk
	// the one it read under mu after letting mu go.
	nodes []uint32
	// snaps is merge input scratch, reused under mu.
	snaps [][]cluster.Info
	epoch uint64
	// prev is the last broadcast queue map: slots missing from the
	// merged view keep their previous assignment, exactly like the
	// single-node control loop.
	prev []int

	merges   uint64
	rejected uint64
	lastDec  *core.Decision
}

// NewCoordinator builds a coordinator on tr and registers its receive
// handler.
func NewCoordinator(tr *CoordinatorEnd, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Slots <= 0 || cfg.NumQueues <= 0 {
		return nil, fmt.Errorf("fleet: coordinator needs positive Slots (%d) and NumQueues (%d)", cfg.Slots, cfg.NumQueues)
	}
	c := &Coordinator{
		cfg:    cfg,
		tr:     tr,
		latest: make(map[uint32]*Snapshot),
		prev:   make([]int, cfg.Slots),
	}
	tr.HandleCoordinator(c.onFrame)
	tr.HandleJoin(c.onJoin)
	return c, nil
}

// onJoin forgets the sequence held for a node that has just handshaken:
// a reborn node counts from 1 again, and its first snapshot must not
// read as a replay. The held snapshot stays in the merge until replaced.
func (c *Coordinator) onJoin(id uint32) {
	c.mu.Lock()
	if held := c.latest[id]; held != nil {
		held.Seq = 0
	}
	c.mu.Unlock()
}

// onFrame ingests one node snapshot and broadcasts the refreshed global
// ranking. Malformed, mis-sized or stale-sequence snapshots are counted
// and dropped — one bad node must not stall the fleet.
func (c *Coordinator) onFrame(from uint32, frame []byte) {
	snap, err := readSnapshot(verified(frame))
	if err != nil || snap.Node != from || len(snap.Infos) > c.cfg.Slots {
		c.mu.Lock()
		c.rejected++
		c.mu.Unlock()
		return
	}

	c.mu.Lock()
	prev, known := c.latest[snap.Node]
	if known && snap.Seq <= prev.Seq {
		c.rejected++
		c.mu.Unlock()
		return
	}
	c.latest[snap.Node] = snap
	if !known {
		at, _ := slices.BinarySearch(c.nodes, snap.Node)
		c.nodes = slices.Insert(slices.Clone(c.nodes), at, snap.Node)
	}
	nodes := c.nodes
	merged := c.mergeLocked()
	dec := core.RankDecision(c.cfg.Ranking, merged, c.cfg.Slots, c.cfg.NumQueues, c.prev, snap.At, snap.At)
	c.prev = dec.QueueOf
	c.epoch++
	c.merges++
	c.lastDec = dec
	out := EncodeDeploy(&Deploy{
		Epoch:   c.epoch,
		At:      snap.At,
		QueueOf: dec.QueueOf,
		Rank:    dec.Rank,
	})
	c.mu.Unlock()

	// Broadcast outside the lock: sends may be dropped (partition,
	// backpressure) and the nodes' staleness bounds handle it.
	for _, id := range nodes {
		_ = c.tr.ToNode(id, out)
	}
}

// Stats is a point-in-time snapshot of the coordinator's counters.
type Stats struct {
	// Nodes is the number of vantage points that have ever reported.
	Nodes int
	// Epoch is the number of global rankings broadcast.
	Epoch uint64
	// Merges counts snapshot ingests that produced a broadcast;
	// Rejected counts frames dropped (corrupt, mis-sized, replayed).
	Merges   uint64
	Rejected uint64
}

// Stats snapshots the coordinator's counters, from any goroutine.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Nodes: len(c.latest), Epoch: c.epoch, Merges: c.merges, Rejected: c.rejected}
}

// LastDecision returns the most recently broadcast global decision (nil
// before the first snapshot arrives). Immutable once published.
func (c *Coordinator) LastDecision() *core.Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastDec
}

// MergedView returns the current slot-wise merged cluster snapshot —
// the coordinator's fleet-wide interpretability view (§10 across
// vantage points).
func (c *Coordinator) MergedView() []cluster.Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mergeLocked()
}

// mergeLocked merges the latest snapshots in node order. The order is
// sorted, not map order: the slot-wise merge is commutative, but the
// broadcast schedule must be identical run to run for the deterministic
// backend's byte-identical guarantee.
func (c *Coordinator) mergeLocked() []cluster.Info {
	c.snaps = c.snaps[:0]
	for _, id := range c.nodes {
		c.snaps = append(c.snaps, c.latest[id].Infos)
	}
	return cluster.MergeSnapshots(c.cfg.Distance, c.snaps...)
}
