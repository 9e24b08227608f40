// Package core implements ACC-Turbo, the paper's contribution: online
// clustering in the data plane (§4) combined with programmable
// scheduling driven by a periodic control loop (§5).
//
// The package is layered like the deployment it models:
//
//   - Dataplane (dataplane.go) is the per-packet pipeline: feature
//     extraction → cluster assignment → queue classification. It owns
//     no timers and never touches a clock; it can be sharded into N
//     independent clusterers fed by an RSS-style flow hash, mirroring
//     the per-pipe clustering of the multi-pipe Tofino prototype.
//   - ControlPlane (controlplane.go) is the periodic scheduler: poll
//     per-cluster statistics (merged across shards), rank clusters by
//     estimated maliciousness, map them to priority queues — most
//     suspicious last — and deploy the mapping after DeployDelay,
//     modeling the controller latency measured in §7.
//   - Clock (clock.go) is the narrow scheduler interface between them,
//     with a bit-identical eventsim adapter (SimClock) for simulations
//     and a wall-clock driver (WallClock) for real-time use.
//
// Turbo in this file composes the three for the discrete-event
// simulator: one Dataplane classifying into a strict-priority qdisc,
// one ControlPlane on a SimClock.
package core

import (
	"fmt"
	"io"

	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
)

// Ranking selects the maliciousness estimate used to order clusters
// (§5.1). Higher rank means more suspicious, hence lower scheduling
// priority.
type Ranking uint8

// Ranking algorithms of §5.1 / Fig. 11a.
const (
	// ByThroughput ranks clusters by bytes per polling window ("Th.").
	ByThroughput Ranking = iota
	// ByPacketRate ranks by packets per window ("N.P.").
	ByPacketRate
	// ByThroughputOverSize divides throughput by the cluster's size
	// ("Th./Size"): small (high-similarity) clusters at high rate are
	// the most suspicious.
	ByThroughputOverSize
	// ByPacketRateOverSize is the packet-rate analogue ("N.P./Size").
	ByPacketRateOverSize
)

// String names the ranking as in Fig. 11a.
func (r Ranking) String() string {
	switch r {
	case ByThroughput:
		return "Th."
	case ByPacketRate:
		return "N.P."
	case ByThroughputOverSize:
		return "Th./Size"
	case ByPacketRateOverSize:
		return "N.P./Size"
	default:
		return fmt.Sprintf("ranking(%d)", uint8(r))
	}
}

// Config parameterizes an ACC-Turbo instance.
type Config struct {
	// Clustering configures the online clusterer (§4). The hardware
	// prototype uses 4 clusters; simulations default to 10.
	Clustering cluster.Config
	// Ranking selects the cluster-maliciousness estimate.
	Ranking Ranking
	// NumQueues is the number of strict-priority queues. Zero defaults
	// to Clustering.MaxClusters (one queue per cluster, as on Tofino).
	NumQueues int
	// PollInterval is the control-plane polling period.
	PollInterval eventsim.Time
	// DeployDelay is the latency between computing a new mapping and
	// it taking effect in the data plane.
	DeployDelay eventsim.Time
	// ReseedInterval, when positive, discards all clusters
	// periodically so aggregates can re-form after traffic shifts
	// (the controller-driven re-initialization of the prototype).
	ReseedInterval eventsim.Time
	// Shards is the number of independent data-plane clustering
	// pipelines (multi-pipe operation). Zero or one selects the single
	// deterministic pipeline; N > 1 demuxes packets by flow hash across
	// N clusterers whose snapshots the control plane merges before
	// ranking.
	Shards int
	// FailOpenAfter, when positive, arms the control-plane watchdog: if
	// no fresh decision deploys within FailOpenAfter of the previous
	// one, the queue map reverts to uniform priority (every cluster in
	// queue 0 — strict priority degenerates to a plain FIFO, the
	// fail-open posture of the ACC lineage) until the loop recovers.
	// Zero disables the watchdog; experiments and golden baselines run
	// with it disabled. Sensible bounds start around
	// 3*(PollInterval+DeployDelay).
	FailOpenAfter eventsim.Time
	// WrapClock, when set, wraps the clock that drives the poll, reseed
	// and deploy callbacks before the loop is scheduled — the hook the
	// fault injector (internal/faults) uses to stall or delay polls.
	// The watchdog deliberately stays on the unwrapped clock: it is the
	// supervision layer that must keep observing while the loop it
	// guards is being stalled.
	WrapClock func(Clock) Clock
	// Ranker, when set, replaces the ranking policy behind the control
	// loop: every poll hands the freshly polled snapshot to
	// Ranker.Rank instead of the built-in local ranking. This is the
	// fleet-mode hook (internal/fleet.Node publishes the snapshot to a
	// coordinator and deploys the merged global ranking). Nil selects
	// the local ranker, whose decisions are bit-identical to the
	// pre-seam control loop. Structural: fixed at construction.
	Ranker Ranker
}

// DefaultConfig mirrors the paper's simulation setup: 10 clusters over
// the default feature set, throughput ranking, 100 ms polling with
// 10 ms deployment.
func DefaultConfig() Config {
	return Config{
		Clustering:   cluster.DefaultConfig(10, packet.DefaultSimulationFeatures()),
		Ranking:      ByThroughput,
		PollInterval: 100 * eventsim.Millisecond,
		DeployDelay:  10 * eventsim.Millisecond,
	}
}

// HardwareConfig mirrors the §7.1 Tofino deployment: 4 clusters over
// {dst-IP low bytes, sport, dport}, throughput ranking, and a
// controller that polls "at maximum speed" but deploys with ≈1 s of
// latency.
func HardwareConfig() Config {
	return Config{
		Clustering:   cluster.DefaultConfig(4, packet.HardwareFeatures()),
		Ranking:      ByThroughput,
		PollInterval: 500 * eventsim.Millisecond,
		DeployDelay:  500 * eventsim.Millisecond,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Clustering.Validate(); err != nil {
		return err
	}
	if c.NumQueues < 0 {
		return fmt.Errorf("core: NumQueues %d < 0", c.NumQueues)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: Shards %d < 0", c.Shards)
	}
	// The hot-reloadable fields share one validator with Reconfigure,
	// so construction and live patches enforce identical bounds. A zero
	// DeployDelay is rejected: the deploy callback must be a scheduled
	// event, or a reconfigure could interleave with an in-flight
	// deployment of the same tick.
	rt := c.Runtime()
	return rt.Validate()
}

func (c Config) withDefaults() Config {
	if c.NumQueues == 0 {
		c.NumQueues = c.Clustering.MaxClusters
	}
	return c
}

// Decision is one control-loop outcome, kept for interpretability
// (§10): the operator can inspect exactly which cluster went to which
// queue and why.
type Decision struct {
	// At is when the mapping was computed; DeployedAt adds the delay.
	At         eventsim.Time
	DeployedAt eventsim.Time
	// Clusters is the snapshot the decision was based on. It is a deep
	// copy owned by the decision: cluster.Online.Snapshot (and the
	// sharded merge) copy all per-cluster state, and nothing mutates
	// the Infos after the decision is formed, so post-hoc inspection
	// always sees the state the controller ranked.
	Clusters []cluster.Info
	// Rank holds the computed rank metric per cluster ID.
	Rank []float64
	// QueueOf maps cluster ID to its assigned priority queue
	// (0 = highest priority).
	QueueOf []int
}

// queueBytes is the byte capacity of each of a simulated Turbo's
// strict-priority queues.
const queueBytes = 64 << 10

// Turbo is one ACC-Turbo instance wired for the discrete-event
// simulator: a (possibly sharded) Dataplane classifying packets into a
// strict-priority qdisc, and a ControlPlane driven by the engine's
// virtual clock. Deployment counts and decisions live on the
// ControlPlane.
type Turbo struct {
	dp   *Dataplane
	cp   *ControlPlane
	prio *queue.Priority

	// OnAssign, when set, observes every (packet, cluster) assignment;
	// the evaluation harness uses it for purity/recall accounting.
	OnAssign func(now eventsim.Time, p *packet.Packet, a cluster.Assignment)
}

// Attach builds an ACC-Turbo instance on the given engine, schedules
// its control loop, and returns a port whose qdisc is its
// strict-priority scheduler. The clustering stage runs inside the
// qdisc's classifier — the explicit assignment→queue flow of
// Dataplane.Classify — so no ingress stage is needed. Nothing is
// scheduled on the engine when it errors.
func Attach(eng *eventsim.Engine, rateBits float64, rec *netsim.Recorder, cfg Config) (*netsim.Port, *Turbo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	t := &Turbo{dp: NewDataplane(cfg, false)}
	t.prio = queue.NewPriority(cfg.NumQueues, queueBytes, t.classify)
	cp, err := NewControlPlane(t.dp, SimClock{Eng: eng}, cfg)
	if err != nil {
		return nil, nil, err
	}
	t.cp = cp
	t.cp.Start()
	return netsim.NewPort(eng, t.prio, rateBits, rec), t, nil
}

// AttachE forwards to Attach. It is kept only because the benchmark
// harness calls it; it goes when the harness moves to Attach.
func AttachE(eng *eventsim.Engine, rateBits float64, rec *netsim.Recorder, cfg Config) (*netsim.Port, *Turbo, error) {
	return Attach(eng, rateBits, rec, cfg)
}

// ControlPlane exposes the periodic scheduler.
func (t *Turbo) ControlPlane() *ControlPlane { return t.cp }

// classify is the data-plane step the strict-priority qdisc runs per
// packet: assign the packet to its cluster, then look the cluster up in
// the live queue mapping. The assignment is threaded explicitly from
// the clusterer to QueueFor — there is no hidden in-flight packet state, so
// the classifier works identically whether the packet arrived through a
// port or was enqueued directly.
func (t *Turbo) classify(now eventsim.Time, p *packet.Packet) int {
	a, q := t.dp.Classify(p)
	if t.OnAssign != nil {
		t.OnAssign(now, p, a)
	}
	return q
}

// QueueOf returns the live queue assignment for cluster id. Unknown or
// out-of-range ids report the lowest-priority queue, matching the
// classifier's defensive routing.
func (t *Turbo) QueueOf(id int) int { return t.dp.QueueFor(id) }

// Reconfigure applies a runtime-config patch to the control plane (see
// ControlPlane.Reconfigure): validated, atomically published,
// tickers rescheduled — no packet is dropped or reclassified.
func (t *Turbo) Reconfigure(patch RuntimePatch) (uint64, error) {
	return t.cp.Reconfigure(patch)
}

// Runtime returns the live runtime configuration.
func (t *Turbo) Runtime() RuntimeConfig { return t.cp.Runtime() }

// SaveState serializes the full defense state (see SaveState).
func (t *Turbo) SaveState(w io.Writer) error { return SaveState(w, t.dp, t.cp) }

// RestoreState loads a snapshot into this freshly built instance (see
// RestoreState).
func (t *Turbo) RestoreState(r io.Reader) error { return RestoreState(r, t.dp, t.cp) }
