// Package accturbo is the public API of the ACC-Turbo reproduction
// (Gran Alcoz et al., "Aggregate-Based Congestion Control for
// Pulse-Wave DDoS Defense", SIGCOMM 2022).
//
// The package offers two entry points:
//
//   - Defense: a standalone ACC-Turbo pipeline. Feed it packets (from
//     any capture or forwarding path) and it returns, per packet, the
//     aggregate (cluster) the packet belongs to and the priority queue
//     ACC-Turbo would schedule it into. Cluster state is fully
//     inspectable, mirroring the interpretability story of §10.
//
//   - The experiment harness (RunExperiment / Experiments), which
//     regenerates every table and figure of the paper's evaluation on
//     the packet-level simulator in internal/.
//
// Lower-level building blocks (the online clusterer, the classic ACC
// agent, the Jaqen baseline, the RED/PIFO/priority qdiscs, the traffic
// generators, and the discrete-event engine) live in internal/ and are
// exercised through the example programs in examples/.
package accturbo

import (
	"io"
	"sync/atomic"
	"time"

	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/experiments"
	"accturbo/internal/packet"
	"accturbo/internal/telemetry"
	"accturbo/internal/victim"
)

// Re-exported packet vocabulary, so Defense users need no internal
// imports.
type (
	// Packet is a decoded packet (see internal/packet).
	Packet = packet.Packet
	// Feature identifies a clustering dimension (header field).
	Feature = packet.Feature
	// FeatureSet is an ordered list of clustering dimensions.
	FeatureSet = packet.FeatureSet
	// Config parameterizes the ACC-Turbo pipeline.
	Config = core.Config
	// ClusterInfo is the interpretable snapshot of one aggregate.
	ClusterInfo = cluster.Info
	// Decision is one control-loop outcome (rank + queue map).
	Decision = core.Decision
	// HistogramSnapshot is a copy-on-read histogram state (see
	// Metrics.DeployLatencyNs).
	HistogramSnapshot = telemetry.HistogramSnapshot
	// RuntimeConfig is the hot-reloadable half of Config (see
	// Defense.Reconfigure).
	RuntimeConfig = core.RuntimeConfig
	// RuntimePatch is a partial RuntimeConfig; nil fields keep their
	// current value. Its JSON field names are the PUT /config contract
	// of cmd/accturbo-defend.
	RuntimePatch = core.RuntimePatch
	// Ranking selects the cluster-maliciousness estimate (§5.1).
	Ranking = core.Ranking
)

// Re-exported ranking algorithms (Fig. 11a).
const (
	RankByThroughput         = core.ByThroughput
	RankByPacketRate         = core.ByPacketRate
	RankByThroughputOverSize = core.ByThroughputOverSize
	RankByPacketRateOverSize = core.ByPacketRateOverSize
)

// ParseRanking maps an operator-facing name ("Th.", "N.P.", "Th./Size",
// "N.P./Size" or spelled-out aliases) to a Ranking.
var ParseRanking = core.ParseRanking

// Re-exported feature constants (the subsets the paper deploys).
var (
	// DefaultFeatures is the §8 simulation feature set.
	DefaultFeatures = packet.DefaultSimulationFeatures
	// HardwareFeatures is the §7.1 Tofino feature set.
	HardwareFeatures = packet.HardwareFeatures
)

// Re-exported clustering knobs, so Config.Clustering can be tuned
// without internal imports. The deployed configuration (Manhattan,
// unnormalized, fast search) is the one built for line rate; every other
// combination is a quality baseline of the paper's Fig. 10 and runs on
// the naive reference implementation — same accessors, several times
// slower per packet, and no snapshots (see SaveState and
// internal/cluster).
type (
	// ClusterDistance selects the distance metric (§4.2.3).
	ClusterDistance = cluster.Distance
	// ClusterSearch selects the closest-cluster search strategy.
	ClusterSearch = cluster.Search
)

const (
	// DistanceManhattan is the deployable range-based metric (Eq. 5).
	DistanceManhattan = cluster.Manhattan
	// DistanceAnime is the hypervolume metric of Def. 4.1.
	DistanceAnime = cluster.Anime
	// DistanceEuclidean is the center-based metric (Eq. 2).
	DistanceEuclidean = cluster.Euclidean
	// SearchFast is the linear closest-cluster scan the hardware uses.
	SearchFast = cluster.Fast
	// SearchExhaustive also weighs merging the two closest clusters
	// (quadratic in the cluster count).
	SearchExhaustive = cluster.Exhaustive
)

// ErrBaselineSnapshot is what SaveState and RestoreState return (wrapped)
// for a Defense whose clustering is not the deployed configuration.
var ErrBaselineSnapshot = cluster.ErrBaselineSnapshot

// Victim identification: a heavy-keeper detector that ranks the
// destination aggregates an attack is converging on. Feed it admitted
// packets' destination keys (DstKey) and byte counts, close windows
// with Advance, and read the hysteresis-stable victim list — the seam a
// per-victim mitigation manager plugs into.
type (
	// VictimDetector ranks heavy destination aggregates per window. It
	// has one owner, the goroutine that feeds it; only Victims and
	// Windows may be called from others, and answer as of the last
	// closed window.
	VictimDetector = victim.Detector
	// VictimConfig sizes a VictimDetector.
	VictimConfig = victim.Config
	// Victim is one listed destination aggregate.
	Victim = victim.Victim
)

// NewVictimDetector builds a detector after validating cfg.
var NewVictimDetector = victim.New

// DefaultVictimConfig is an 8-victim detector with a 20%-in/10%-out
// hysteresis band over a 4×4096 conservative-update sketch.
var DefaultVictimConfig = victim.DefaultConfig

// DstKey extracts the destination-aggregate key VictimDetector.Observe
// expects: the IPv4 destination address as a big-endian integer. Total
// on every Packet; the zero value's key is 0 (0.0.0.0).
func DstKey(p *Packet) uint64 { return uint64(p.DstIP.Uint32()) }

// V4 builds the four-octet address Packet.SrcIP and DstIP hold.
var V4 = packet.V4

// FromDuration converts a time.Duration into the virtual-time unit
// used by Config fields (PollInterval, DeployDelay, ReseedInterval).
var FromDuration = eventsim.FromDuration

// VirtualTime is the virtual-time unit Config and RuntimePatch fields
// are expressed in; convert with FromDuration and Duration().
type VirtualTime = eventsim.Time

// DefaultConfig returns the paper's simulation configuration (10
// clusters, Manhattan distance, fast search, throughput ranking).
func DefaultConfig() Config { return core.DefaultConfig() }

// HardwareConfig returns the §7.1 Tofino-prototype configuration.
func HardwareConfig() Config { return core.HardwareConfig() }

// Verdict is Defense's per-packet output.
type Verdict struct {
	// Cluster is the aggregate the packet was assigned to.
	Cluster int
	// Queue is the strict-priority queue (0 = highest priority) the
	// live scheduling policy maps that aggregate to.
	Queue int
	// Distance is the packet's clustering distance before absorption
	// (0 when the packet was already covered).
	Distance float64
	// NewCluster reports that the packet seeded a new aggregate.
	NewCluster bool
}

// Defense is a standalone ACC-Turbo pipeline: the online-clustering
// data plane plus the ranking control loop, split along the same
// dataplane/control-plane boundary as internal/core and driven through
// its Clock abstraction.
//
// Concurrency contract, per mode:
//
//   - Config.Shards <= 1 (NewDefense): the deterministic single
//     pipeline. The control loop runs in virtual time advanced by the
//     caller-supplied Process timestamps, so runs are exactly
//     reproducible. NOT safe for concurrent use — feed it from one
//     goroutine.
//   - Config.Shards > 1 (NewDefense or NewRealTimeDefense): the
//     concurrent sharded pipeline. Process is safe from any number of
//     goroutines: packets demux to per-shard clusterers by flow hash,
//     and the control loop runs on a wall clock, merging per-shard
//     snapshots into one global ranking. Call Close when done.
type Defense struct {
	cfg   core.Config
	dp    *core.Dataplane
	cp    *core.ControlPlane
	eng   *eventsim.Engine // deterministic mode (nil in real-time mode)
	clock *core.WallClock  // real-time mode (nil in deterministic mode)
	reg   *telemetry.Registry

	// ingest is the optional bounded ingest stage (see EnableIngest);
	// atomic because metrics scrapes and Health read it from other
	// goroutines than the one that enables it.
	ingest atomic.Pointer[ingestStage]
}

// describe wires the pipeline's instruments into the defense registry.
func (d *Defense) describe() {
	d.reg = telemetry.NewRegistry()
	d.reg.CounterFunc("accturbo_packets_observed", d.dp.Observed)
	d.reg.CounterFunc("accturbo_ingest_shed", d.IngestShed)
	d.reg.CounterFunc("accturbo_ingest_rejected", d.IngestRejected)
	d.reg.GaugeFunc("accturbo_ingest_depth", func() float64 {
		if in := d.ingest.Load(); in != nil {
			return float64(in.depth())
		}
		return 0
	})
	d.dp.Describe(d.reg, "accturbo_dataplane")
	d.cp.Describe(d.reg, "accturbo_controlplane")
}

// NewDefense builds a pipeline from cfg. With cfg.Shards <= 1 it is the
// deterministic single pipeline; with cfg.Shards > 1 it is the
// concurrent real-time pipeline (identical to NewRealTimeDefense). An
// invalid configuration returns an error and starts nothing.
func NewDefense(cfg Config) (*Defense, error) {
	if cfg.Shards > 1 {
		return NewRealTimeDefense(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Defense{
		cfg: cfg,
		eng: eventsim.New(),
		dp:  core.NewDataplane(cfg, false),
	}
	if err := d.start(core.SimClock{Eng: d.eng}); err != nil {
		return nil, err
	}
	return d, nil
}

// start puts the control plane on clock, registers the instruments and
// starts the loop: the tail of both constructors.
func (d *Defense) start(clock core.Clock) error {
	cp, err := core.NewControlPlane(d.dp, clock, d.cfg)
	if err != nil {
		return err
	}
	d.cp = cp
	d.describe()
	cp.Start()
	return nil
}

// NewRealTimeDefense builds a concurrent pipeline whose control loop
// runs on the wall clock: polls fire every PollInterval of real time
// and deployments apply DeployDelay later, regardless of Process
// timestamps. Any cfg.Shards >= 0 is accepted (0 and 1 mean one shard,
// still goroutine-safe). Call Close to stop the control loop. An invalid
// configuration returns an error and starts no goroutine.
func NewRealTimeDefense(cfg Config) (*Defense, error) { return newRealTime(cfg, nil) }

// NewDefenseE forwards to NewDefense. It is kept only because the
// benchmark harness calls it; it goes when the harness moves to
// NewDefense.
func NewDefenseE(cfg Config) (*Defense, error) { return NewDefense(cfg) }

// NewRealTimeDefenseE forwards to NewRealTimeDefense, kept for the
// benchmark harness like NewDefenseE.
func NewRealTimeDefenseE(cfg Config) (*Defense, error) { return NewRealTimeDefense(cfg) }

// newRealTime wires every wall-clock Defense, standalone (ranker nil) or
// fleet node. The order is fixed: the clock exists before the ranker,
// which stamps deployment arrivals with it, and the ranker before the
// control plane, which calls it from the first poll on.
func newRealTime(cfg Config, ranker func(now func() VirtualTime) (core.Ranker, error)) (*Defense, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clock := core.NewWallClock()
	if ranker != nil {
		var err error
		if cfg.Ranker, err = ranker(clock.Now); err != nil {
			clock.Close()
			return nil, err
		}
	}
	d := &Defense{
		cfg:   cfg,
		clock: clock,
		dp:    core.NewDataplane(cfg, true),
	}
	if err := d.start(clock); err != nil {
		clock.Close()
		return nil, err
	}
	return d, nil
}

// Process classifies one packet. In deterministic mode it first
// advances the pipeline clock to `at` (running any due control loops);
// timestamps must be non-decreasing. In real-time mode `at` is ignored
// — the control loop is already running on the wall clock — and
// Process may be called from any goroutine.
func (d *Defense) Process(at time.Duration, p *Packet) Verdict {
	if d.eng != nil {
		t := eventsim.FromDuration(at)
		if t > d.eng.Now() {
			d.eng.RunUntil(t)
		}
	}
	a, q := d.dp.Classify(p)
	return Verdict{
		Cluster:    a.Cluster,
		Queue:      q,
		Distance:   a.Distance,
		NewCluster: a.Created,
	}
}

// ObserveBatch classifies a batch of packets sharing the timestamp
// `at`, the amortized alternative to calling Process in a loop: the
// live queue mapping is loaded once, each data-plane shard is visited
// once (one lock acquisition per shard in the concurrent mode), and
// telemetry counters are flushed per batch rather than per packet.
//
// When queues is non-nil it must be at least len(pkts) long; entry i
// receives packet i's priority queue (what Verdict.Queue would have
// reported). Pass nil when only the aggregate counters matter. In
// deterministic mode the pipeline clock first advances to `at`; in
// real-time mode `at` is ignored and ObserveBatch may be called from
// any goroutine.
func (d *Defense) ObserveBatch(at time.Duration, pkts []*Packet, queues []int) {
	if d.eng != nil {
		t := eventsim.FromDuration(at)
		if t > d.eng.Now() {
			d.eng.RunUntil(t)
		}
	}
	d.dp.ObserveBatch(pkts, queues)
}

// Poll forces one control-loop iteration immediately (poll → rank →
// map, with the deployment still applying after DeployDelay), without
// waiting for the next PollInterval tick. Safe in both modes; in
// deterministic mode it uses the current virtual time.
func (d *Defense) Poll() {
	var now eventsim.Time
	if d.eng != nil {
		now = d.eng.Now()
	} else {
		now = d.clock.Now()
	}
	d.cp.Step(now)
}

// Close stops the pipeline. The ingest stage (when enabled) is drained
// first — every accepted OfferFrame is classified before the control
// loop stops, so PacketsObserved + IngestShed equals the total number of
// accepted-or-shed offers once Close returns. Wire-speed
// lanes must have stopped offering and Flushed before Close (see
// IngestLane). Required in real-time mode to release its timers; a
// no-op in deterministic mode.
func (d *Defense) Close() {
	if in := d.ingest.Load(); in != nil {
		in.close()
	}
	d.cp.Stop()
	if d.clock != nil {
		d.clock.Close()
	}
}

// Health is the operator-facing degradation snapshot served by the
// /health endpoint of cmd/accturbo-defend: the control plane's
// liveness (watchdog staleness, fail-open state, recovered panics)
// plus ingest pressure. Safe to take from any goroutine.
type Health struct {
	// Control is the control plane's liveness snapshot (see
	// internal/core.Health): poll/decision ages, watchdog state,
	// fail-open flag, recovered panics.
	Control core.Health `json:"control"`
	// PacketsObserved counts packets processed across all shards.
	PacketsObserved uint64 `json:"packets_observed"`
	// IngestDepth/IngestCapacity report the bounded ingest queue's
	// occupancy (zero until EnableIngest); IngestShed counts packets
	// rejected under backpressure.
	IngestDepth    int    `json:"ingest_depth"`
	IngestCapacity int    `json:"ingest_capacity"`
	IngestShed     uint64 `json:"ingest_shed"`
	// Degraded rolls the snapshot up for load balancers: true while the
	// control plane is failed open or its decisions are stale.
	Degraded bool `json:"degraded"`
}

// Health snapshots the pipeline's degradation state. It never blocks
// on the control loop, so it stays responsive while a poll is wedged —
// which is exactly when it is needed.
func (d *Defense) Health() Health {
	h := Health{
		Control:         d.cp.Health(),
		PacketsObserved: d.dp.Observed(),
	}
	if in := d.ingest.Load(); in != nil {
		h.IngestDepth = in.depth()
		h.IngestCapacity = in.capacity
		h.IngestShed = in.shed.Value()
	}
	h.Degraded = h.Control.Degraded
	return h
}

// Reconfigure applies a runtime-config patch to the live pipeline:
// ranking strategy, poll interval, deploy delay, reseed interval and
// fail-open bounds can all change without a restart. The patch is
// validated against the current config, published atomically (the
// control loop re-reads it every tick), and the periodic tickers are
// rescheduled under a bumped generation — no packet is dropped or
// reclassified, and a deployment already in flight still applies.
// Structural settings (features, cluster/queue counts, shards) cannot
// change; build a new Defense for those. It returns the new config
// generation. Safe from any goroutine.
func (d *Defense) Reconfigure(patch RuntimePatch) (uint64, error) {
	return d.cp.Reconfigure(patch)
}

// Runtime returns the live runtime configuration.
func (d *Defense) Runtime() RuntimeConfig { return d.cp.Runtime() }

// ConfigGeneration returns the runtime-config version: 1 at
// construction, +1 per successful Reconfigure (restores count as one).
func (d *Defense) ConfigGeneration() uint64 { return d.cp.ConfigGeneration() }

// SaveState serializes the full defense state into w: runtime config,
// the deployed queue map, every shard's learned clusters, the last
// decision, fail-open status and lifetime counters, framed by a magic/
// version header and a CRC-32 trailer. Safe on a live pipeline (shards
// are locked one at a time in concurrent mode); for a quiescent-exact
// snapshot, stop feeding packets first. A Defense whose clustering is a
// baseline configuration (anything but Manhattan, unnormalized, fast
// search over exact nominal sets) returns an error wrapping
// ErrBaselineSnapshot and writes nothing.
func (d *Defense) SaveState(w io.Writer) error {
	return core.SaveState(w, d.dp, d.cp)
}

// RestoreState loads a SaveState snapshot into this freshly built
// Defense (same structural config; no packets processed yet). The
// restored process resumes with the learned clusters, the deployed
// queue map, and the saved runtime config live immediately — its first
// control-loop decision ranks the restored aggregates instead of
// re-converging from scratch. A baseline-configured Defense refuses with
// ErrBaselineSnapshot, untouched.
func (d *Defense) RestoreState(r io.Reader) error {
	return core.RestoreState(r, d.dp, d.cp)
}

// Shards returns the number of data-plane clustering pipelines.
func (d *Defense) Shards() int { return d.dp.NumShards() }

// PacketsObserved returns the total number of packets processed across
// all shards (exact once ingest has quiesced).
func (d *Defense) PacketsObserved() uint64 { return d.dp.Observed() }

// Deployments returns the number of cluster→queue mappings the control
// plane has pushed to the data plane.
func (d *Defense) Deployments() uint64 { return d.cp.Deployments() }

// Clusters returns the interpretable snapshot of all aggregates — the
// per-shard views merged slot-wise when sharded. The snapshot is a deep
// copy owned by the caller.
func (d *Defense) Clusters() []ClusterInfo { return d.dp.Snapshot() }

// LastDecision returns the most recent control-loop outcome (nil until
// the first deployment). The decision and its cluster snapshot are
// immutable once published.
func (d *Defense) LastDecision() *Decision { return d.cp.LastDecision() }

// QueueOf returns the live priority queue of a cluster. Unknown or
// out-of-range IDs report the lowest-priority queue, matching the
// data-plane classifier.
func (d *Defense) QueueOf(clusterID int) int { return d.dp.QueueFor(clusterID) }

// RecentDecisions returns up to n of the most recently deployed
// control-loop decisions, newest first (the control plane keeps the
// last 64). Together with Clusters it answers "what did the controller
// see and decide just before the incident".
func (d *Defense) RecentDecisions(n int) []*Decision { return d.cp.Recent(n) }

// Metrics is a point-in-time snapshot of the pipeline's telemetry. All
// slices and the histogram are copies owned by the caller.
type Metrics struct {
	// PacketsObserved counts packets processed across all shards.
	PacketsObserved uint64
	// Deployments counts cluster→queue mappings installed.
	Deployments uint64
	// AssignedPkts counts packets per cluster slot, summed over shards.
	AssignedPkts []uint64
	// RoutedPkts counts packets per strict-priority queue (index 0 is
	// the highest priority).
	RoutedPkts []uint64
	// DeployLatencyNs is the poll→deploy latency distribution in
	// nanoseconds. Under the deterministic clock every observation is
	// exactly Config.DeployDelay; on the wall clock it includes real
	// scheduler jitter.
	DeployLatencyNs HistogramSnapshot
	// IngestShed counts packets the bounded ingest stage rejected under
	// backpressure (zero until EnableIngest).
	IngestShed uint64
}

// Metrics snapshots the pipeline's telemetry. Safe to call from any
// goroutine, concurrently with Process; counters are read lock-free and
// may trail packets still in flight. PacketsObserved, AssignedPkts and
// RoutedPkts come from one read, so they agree even on a live pipeline.
func (d *Defense) Metrics() Metrics {
	assigned, routed := d.dp.Counts()
	var observed uint64
	for _, c := range assigned {
		observed += c
	}
	return Metrics{
		PacketsObserved: observed,
		Deployments:     d.cp.Deployments(),
		AssignedPkts:    assigned,
		RoutedPkts:      routed,
		DeployLatencyNs: d.cp.DeployLatency(),
		IngestShed:      d.IngestShed(),
	}
}

// WriteMetrics writes every registered instrument in the
// expvar/Prometheus-style text exposition (`# TYPE` lines, cumulative
// histogram buckets). This is the payload accturbo-defend serves on
// -metrics-addr.
func (d *Defense) WriteMetrics(w io.Writer) error { return d.reg.WriteText(w) }

// NumQueues returns the number of strict-priority queues (queue
// NumQueues-1 is the lowest priority).
func (d *Defense) NumQueues() int { return d.dp.Config().NumQueues }

// Experiment metadata, re-exported from the harness.
type (
	// Experiment is one reproducible paper experiment.
	Experiment = experiments.Experiment
	// ExperimentOptions tune experiment runs. Set Parallel to fan an
	// experiment's independent sweep points out over a worker pool;
	// results are byte-identical at any worker count for a fixed Seed.
	ExperimentOptions = experiments.Options
	// ExperimentResult holds the regenerated series and notes.
	ExperimentResult = experiments.Result
)

// Experiments lists every reproduced table and figure in paper order.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment regenerates one table or figure by ID ("fig2" ...
// "fig11", "table3", "table4").
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentResult, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(opt), nil
}
