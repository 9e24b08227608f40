package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
	"accturbo/internal/telemetry"
)

// ControlPlane is the periodic half of ACC-Turbo (§5.2): every
// PollInterval it polls the data plane's cluster statistics, ranks the
// clusters by estimated maliciousness, maps rank positions onto the
// strict-priority queues, and deploys the new mapping after
// DeployDelay. It is driven entirely through the Clock interface, so
// the identical loop runs in virtual time (SimClock) and wall time
// (WallClock).
type ControlPlane struct {
	// cfg holds the structural half of the configuration — feature set,
	// cluster/queue counts, shards — which is fixed at construction. The
	// hot-reloadable half lives in rt and is re-read on every tick.
	cfg Config
	dp  *Dataplane
	// clock drives the loop (poll, reseed, deploy callbacks). It is the
	// caller's clock, possibly wrapped by cfg.WrapClock for fault
	// injection; rawClock is always the unwrapped original, and the
	// watchdog runs on it so supervision survives an injected stall of
	// the loop it guards.
	clock    Clock
	rawClock Clock

	// rt is the live runtime configuration. Reconfigure publishes a
	// validated replacement; its Store generation doubles as the ticker
	// stamp — every scheduled loop carries the generation it was created
	// under and no-ops once a newer one is published, so a cancelled
	// ticker that still fires cannot double-drive the loop.
	rt Hot[RuntimeConfig]

	mu sync.Mutex // serializes Step against itself (manual Poll vs ticker)

	// ranker turns each polled snapshot into the Decision to deploy —
	// the narrow seam between the loop's plumbing and the ranking
	// policy. cfg.Ranker overrides it (fleet mode); the default
	// localRanker reproduces the single-node loop bit for bit.
	ranker Ranker

	// schedMu protects the ticker lifecycle: stops, started, running,
	// and the swap-then-reschedule sequence in Reconfigure.
	schedMu sync.Mutex
	stops   []func()
	started bool
	running bool

	deployments telemetry.Counter
	lastDec     atomic.Pointer[Decision]

	// Watchdog / fail-open state (see health.go). Times are clock
	// nanoseconds, -1 before the first event; all fields are atomics so
	// Health() is safe from any goroutine.
	startAt      atomic.Int64
	tickAt       atomic.Int64 // time of the latest clock callback or Step
	lastPollAt   atomic.Int64
	lastDeployAt atomic.Int64
	pollWallLast atomic.Int64 // wall-clock ns spent in the last Step
	pollWallMax  atomic.Int64
	consecStale  atomic.Uint32 // consecutive watchdog checks that found staleness
	failOpen     atomic.Bool
	lastPanic    atomic.Pointer[string]

	panicsRecovered telemetry.Counter
	watchdogTrips   telemetry.Counter
	failOpens       telemetry.Counter

	// deployLatency observes the poll→deploy latency of every deployed
	// decision: the span from Step computing the mapping to the clock
	// callback installing it. Under SimClock this is exactly DeployDelay;
	// under WallClock it adds real scheduler jitter.
	deployLatency *telemetry.Histogram

	// history is a ring of the most recent deployed decisions, kept for
	// post-hoc interpretability (§10): Recent answers "what did the
	// controller see and decide just before the incident".
	histMu  sync.Mutex
	history [deployHistory]*Decision
	histLen int
	histPos int

	// OnDeploy, when set, observes every deployed decision. It runs on
	// the clock's callback context. Set it before Start.
	OnDeploy func(dec *Decision)
}

// deployHistory is the capacity of the deployed-decision ring buffer.
const deployHistory = 64

// NewControlPlane builds a control plane over the given data plane and
// clock, returning an error on an invalid configuration.
// cfg.WrapClock, when set, wraps the loop's clock; the watchdog stays
// on the raw clock.
func NewControlPlane(dp *Dataplane, clock Clock, cfg Config) (*ControlPlane, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	loopClock := clock
	if cfg.WrapClock != nil {
		loopClock = cfg.WrapClock(clock)
	}
	cp := &ControlPlane{
		cfg:           cfg,
		dp:            dp,
		clock:         loopClock,
		rawClock:      clock,
		ranker:        cfg.Ranker,
		deployLatency: telemetry.NewHistogram(telemetry.LatencyBuckets()),
	}
	if cp.ranker == nil {
		cp.ranker = &localRanker{slots: cfg.Clustering.MaxClusters, numQueues: cfg.NumQueues}
	}
	rt := cfg.Runtime()
	cp.rt.Store(&rt)
	cp.startAt.Store(-1)
	cp.lastPollAt.Store(-1)
	cp.lastDeployAt.Store(-1)
	return cp, nil
}

// guard wraps a clock callback in the control plane's panic-recovery
// boundary: a panic anywhere in the loop (ranking, a user OnDeploy
// hook, a clusterer bug) is counted in telemetry and surfaced through
// Health, never fatal — the data plane keeps classifying under the last
// deployed mapping, and the watchdog eventually fails open if the loop
// stops making progress.
func (cp *ControlPlane) guard(fn func(now eventsim.Time)) func(now eventsim.Time) {
	return func(now eventsim.Time) {
		cp.tickAt.Store(int64(now))
		defer func() {
			if r := recover(); r != nil {
				msg := fmt.Sprintf("%v", r)
				cp.lastPanic.Store(&msg)
				cp.panicsRecovered.Inc()
			}
		}()
		fn(now)
	}
}

// Start schedules the polling loop (and the reseed and watchdog loops
// when configured) on the clock. It must be called at most once.
func (cp *ControlPlane) Start() {
	cp.schedMu.Lock()
	defer cp.schedMu.Unlock()
	if cp.started {
		panic("core: ControlPlane started twice")
	}
	cp.started = true
	cp.running = true
	now := int64(cp.rawClock.Now())
	cp.startAt.Store(now)
	cp.tickAt.Store(now)
	cp.schedule(cp.rt.Generation())
}

// stamped wraps a periodic callback with the panic-recovery boundary
// and a generation check: once Reconfigure publishes a newer runtime
// config, a stale ticker that races its own cancellation becomes a
// no-op instead of double-firing alongside its replacement. Deploy
// callbacks are deliberately NOT stamped — a decision in flight when
// the config changes still lands, matching Stop's "pending deployments
// still apply" semantics.
func (cp *ControlPlane) stamped(gen uint64, fn func(now eventsim.Time)) func(now eventsim.Time) {
	return cp.guard(func(now eventsim.Time) {
		if cp.rt.Generation() != gen {
			return
		}
		fn(now)
	})
}

// schedule creates the periodic loops for the current runtime config,
// stamping each with gen. Caller holds schedMu.
func (cp *ControlPlane) schedule(gen uint64) {
	rt := *cp.rt.Load()
	cp.stops = append(cp.stops, cp.clock.Every(rt.PollInterval, cp.stamped(gen, func(now eventsim.Time) { cp.Step(now) })))
	if rt.ReseedInterval > 0 {
		cp.stops = append(cp.stops, cp.clock.Every(rt.ReseedInterval, cp.stamped(gen, func(eventsim.Time) { cp.dp.Reseed() })))
	}
	if rt.FailOpenAfter > 0 {
		cp.stops = append(cp.stops, cp.rawClock.Every(rt.PollInterval, cp.stamped(gen, cp.watchdog)))
	}
}

// cancelLocked cancels the scheduled loops. Caller holds schedMu.
func (cp *ControlPlane) cancelLocked() {
	for _, s := range cp.stops {
		s()
	}
	cp.stops = nil
}

// Stop cancels the scheduled loops. Pending deployments still apply.
func (cp *ControlPlane) Stop() {
	cp.schedMu.Lock()
	defer cp.schedMu.Unlock()
	cp.cancelLocked()
	cp.running = false
}

// Reconfigure validates base-plus-patch, publishes it atomically (the
// control loop re-reads the runtime config every tick, so the next poll
// ranks under the new settings), and reschedules the tickers under a
// fresh generation. The data plane is untouched: no packet is dropped
// or reclassified by the swap, and a deployment already in flight still
// applies. It returns the new configuration generation.
func (cp *ControlPlane) Reconfigure(patch RuntimePatch) (uint64, error) {
	cp.schedMu.Lock()
	defer cp.schedMu.Unlock()
	next := patch.Apply(*cp.rt.Load())
	if err := next.Validate(); err != nil {
		return cp.rt.Generation(), err
	}
	gen := cp.rt.Store(&next)
	if cp.running {
		cp.cancelLocked()
		cp.schedule(gen)
	}
	return gen, nil
}

// Runtime returns the live runtime configuration.
func (cp *ControlPlane) Runtime() RuntimeConfig { return *cp.rt.Load() }

// ConfigGeneration returns the runtime-config generation: 1 at
// construction, +1 per successful Reconfigure.
func (cp *ControlPlane) ConfigGeneration() uint64 { return cp.rt.Generation() }

// Deployments returns the number of mappings pushed to the data plane.
func (cp *ControlPlane) Deployments() uint64 { return cp.deployments.Value() }

// DeployLatency returns the poll→deploy latency distribution of all
// deployments so far (nanoseconds).
func (cp *ControlPlane) DeployLatency() telemetry.HistogramSnapshot {
	return cp.deployLatency.Snapshot()
}

// Recent returns up to n of the most recently deployed decisions,
// newest first. The ring keeps the last deployHistory (64) deployments.
func (cp *ControlPlane) Recent(n int) []*Decision {
	cp.histMu.Lock()
	defer cp.histMu.Unlock()
	if n > cp.histLen {
		n = cp.histLen
	}
	out := make([]*Decision, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cp.history[(cp.histPos-1-i+2*deployHistory)%deployHistory])
	}
	return out
}

// Describe registers the control plane's instruments on a telemetry
// registry under the given name prefix.
func (cp *ControlPlane) Describe(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"_deployments", &cp.deployments)
	reg.Histogram(prefix+"_deploy_latency_ns", cp.deployLatency)
	reg.Counter(prefix+"_panics_recovered", &cp.panicsRecovered)
	reg.Counter(prefix+"_watchdog_trips", &cp.watchdogTrips)
	reg.Counter(prefix+"_failopen_engaged", &cp.failOpens)
}

// LastDecision returns the most recent deployed decision (nil before
// the first deployment). The returned Decision and its Clusters
// snapshot are immutable once published.
func (cp *ControlPlane) LastDecision() *Decision { return cp.lastDec.Load() }

// rankMetric computes the maliciousness estimate for one cluster
// snapshot under the given ranking (§5.1).
func rankMetric(r Ranking, info cluster.Info) float64 {
	var m float64
	switch r {
	case ByThroughput:
		m = float64(info.Bytes)
	case ByPacketRate:
		m = float64(info.Packets)
	case ByThroughputOverSize:
		m = float64(info.Bytes) / (info.Size + 1)
	case ByPacketRateOverSize:
		m = float64(info.Packets) / (info.Size + 1)
	}
	return m
}

// Step runs one control-loop iteration at time now: poll → rank → map,
// then schedule the deployment DeployDelay later. It returns the
// decision that will be deployed, or nil when no clusters exist yet.
// The periodic loop calls Step; tests and operators may call it
// directly between ticks.
func (cp *ControlPlane) Step(now eventsim.Time) *Decision {
	cp.mu.Lock()
	defer cp.mu.Unlock()

	// One coherent runtime config for the whole tick: ranking and deploy
	// delay come from the same snapshot even if Reconfigure lands
	// mid-step.
	rt := *cp.rt.Load()

	// Watchdog bookkeeping: when the poll started and how long it held
	// the loop (wall time — purely observational, never fed back into
	// scheduling, so deterministic simulations stay bit-identical).
	cp.tickAt.Store(int64(now))
	cp.lastPollAt.Store(int64(now))
	wallStart := time.Now()
	defer func() {
		d := time.Since(wallStart).Nanoseconds()
		cp.pollWallLast.Store(d)
		if d > cp.pollWallMax.Load() {
			cp.pollWallMax.Store(d)
		}
	}()

	infos := cp.dp.Snapshot()
	cp.dp.ResetStats()
	if len(infos) == 0 {
		return nil
	}

	dec := cp.ranker.Rank(now, infos, *cp.dp.queueMap.Load(), rt)
	if dec == nil {
		return nil
	}
	newMap := dec.QueueOf
	cp.clock.After(rt.DeployDelay, cp.guard(func(t eventsim.Time) {
		cp.dp.Deploy(newMap)
		cp.deployments.Inc()
		cp.deployLatency.ObserveSince(dec.At, t)
		cp.lastDec.Store(dec)
		// A fresh ranked mapping landed: the loop is alive again. Leave
		// fail-open (if engaged) — this deploy just restored the last
		// ranking behavior — and reset staleness accounting.
		cp.lastDeployAt.Store(int64(t))
		cp.consecStale.Store(0)
		cp.failOpen.Store(false)
		cp.histMu.Lock()
		cp.history[cp.histPos] = dec
		cp.histPos = (cp.histPos + 1) % deployHistory
		if cp.histLen < deployHistory {
			cp.histLen++
		}
		cp.histMu.Unlock()
		if cp.OnDeploy != nil {
			cp.OnDeploy(dec)
		}
	}))
	return dec
}
