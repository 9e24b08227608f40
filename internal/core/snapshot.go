package core

import (
	"fmt"
	"io"

	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
	"accturbo/internal/frame"
)

// The defense snapshot is a frame container (frame.WriteContainer:
// magic, version, length, payload, CRC-32), so a restore can reject
// truncation, bit rot, and version skew before touching any live state.
// The payload captures everything a fresh process needs to resume
// defending without a re-convergence window: the live runtime config
// (not its generation — that counts Reconfigure calls in one process's
// lifetime), the deployed queue map, every shard's learned clusterer
// state, the last deployed decision, fail-open status, and the lifetime
// telemetry counters. Save → restore → save is byte-identical, which
// internal/manifest checks across two processes.
const (
	snapMagic   = "ACCSNAP1"
	snapVersion = 1
)

// SaveState serializes the full defense state of the dataplane/control
// plane pair into w. It is safe to call on a live concurrent pipeline:
// shard clusterers are locked one at a time while marshaled. Only the
// deployed clustering configuration has a snapshot; any other returns
// cluster.ErrBaselineSnapshot with nothing written.
func SaveState(w io.Writer, dp *Dataplane, cp *ControlPlane) error {
	if !dp.cfg.Clustering.Deployed() {
		return fmt.Errorf("core: %w", cluster.ErrBaselineSnapshot)
	}
	var e frame.Enc

	// Structural fingerprint: a snapshot only restores into a pipeline
	// with identical shape. Feature-set and clustering details are
	// checked per shard by cluster.Restore's own fingerprint.
	e.U32(uint32(len(dp.shards)))
	e.U32(uint32(dp.cfg.NumQueues))
	e.U32(uint32(dp.cfg.Clustering.MaxClusters))

	rt := *cp.rt.Load()
	e.U8(uint8(rt.Ranking))
	e.I64(int64(rt.PollInterval))
	e.I64(int64(rt.DeployDelay))
	e.I64(int64(rt.ReseedInterval))
	e.I64(int64(rt.FailOpenAfter))
	e.I64(0) // the retired watchdog-interval slot; RestoreState refuses anything else

	e.Ints(dp.QueueMap())

	for _, s := range dp.shards {
		if dp.concurrent {
			s.mu.Lock()
		}
		blob := s.clusterer.Marshal()
		if dp.concurrent {
			s.mu.Unlock()
		}
		e.U32(uint32(len(blob)))
		e.Raw(blob)
	}

	encodeDecision(&e, cp.lastDec.Load())

	e.Bool(cp.failOpen.Load())
	e.U32(cp.consecStale.Load())

	e.U64(cp.deployments.Value())
	e.U64(cp.panicsRecovered.Value())
	e.U64(cp.watchdogTrips.Value())
	e.U64(cp.failOpens.Value())

	assigned, routed := dp.Counts()
	e.U64s(assigned)
	e.U64s(routed)
	return frame.WriteContainer(w, snapMagic, snapVersion, e.B)
}

// RestoreState loads a SaveState snapshot into a freshly constructed
// pipeline: the dataplane must not have observed any packet and the
// control plane must not have deployed anything, so a restore can never
// silently merge two histories. The runtime config travels through the
// normal Reconfigure path (validated, tickers rescheduled under a new
// generation); the restored decision becomes LastDecision and its queue
// map is live immediately, so the first control-loop tick ranks
// already-learned clusters instead of re-converging. A pipeline whose
// clustering configuration is not the deployed one refuses with
// cluster.ErrBaselineSnapshot before reading r.
func RestoreState(r io.Reader, dp *Dataplane, cp *ControlPlane) error {
	if !dp.cfg.Clustering.Deployed() {
		return fmt.Errorf("core: %w", cluster.ErrBaselineSnapshot)
	}
	if dp.Observed() != 0 || cp.deployments.Value() != 0 {
		return fmt.Errorf("core: RestoreState needs a fresh pipeline (observed=%d deployments=%d)",
			dp.Observed(), cp.deployments.Value())
	}

	payload, err := frame.ReadContainer(r, snapMagic, snapVersion)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	d := frame.NewDec(payload)
	if got, want := int(d.U32()), len(dp.shards); got != want {
		return fmt.Errorf("core: snapshot has %d shards, pipeline has %d", got, want)
	}
	if got, want := int(d.U32()), dp.cfg.NumQueues; got != want {
		return fmt.Errorf("core: snapshot has %d queues, pipeline has %d", got, want)
	}
	if got, want := int(d.U32()), dp.cfg.Clustering.MaxClusters; got != want {
		return fmt.Errorf("core: snapshot has %d cluster slots, pipeline has %d", got, want)
	}

	rt := RuntimeConfig{
		Ranking:        Ranking(d.U8()),
		PollInterval:   eventsim.Time(d.I64()),
		DeployDelay:    eventsim.Time(d.I64()),
		ReseedInterval: eventsim.Time(d.I64()),
		FailOpenAfter:  eventsim.Time(d.I64()),
	}
	if slot := d.I64(); slot != 0 { // the retired watchdog interval
		return fmt.Errorf("core: snapshot sets a watchdog interval of %v; the watchdog checks once per poll interval", eventsim.Time(slot))
	}

	qm := d.Ints()

	blobs := make([][]byte, len(dp.shards))
	for i := range blobs {
		blobs[i] = d.Bytes(d.Count(1))
	}

	lastDec := decodeDecision(&d)

	failOpen := d.Bool()
	consecStale := d.U32()

	deployments := d.U64()
	panics := d.U64()
	trips := d.U64()
	engagements := d.U64()

	assigned := d.U64s()
	routed := d.U64s()
	if err := d.Done(); err != nil {
		return fmt.Errorf("core: snapshot payload: %w", err)
	}
	if len(assigned) != dp.cfg.Clustering.MaxClusters || len(routed) != dp.cfg.NumQueues {
		return fmt.Errorf("core: snapshot counter widths %d/%d do not match pipeline %d/%d",
			len(assigned), len(routed), dp.cfg.Clustering.MaxClusters, dp.cfg.NumQueues)
	}
	for slot, q := range qm {
		if q >= dp.cfg.NumQueues {
			return fmt.Errorf("core: snapshot maps cluster slot %d to queue %d of %d", slot, q, dp.cfg.NumQueues)
		}
	}

	// Each blob is read once, into a clusterer of its own; a refusal
	// returns before anything live has changed.
	staged := make([]*cluster.Online, len(dp.shards))
	for i, blob := range blobs {
		if staged[i], err = cluster.Restore(dp.cfg.Clustering, blob); err != nil {
			return fmt.Errorf("core: shard %d: %w", i, err)
		}
	}

	// Everything decoded — commit. The runtime config goes through
	// Reconfigure so it is validated and the tickers land on the
	// restored cadence under a fresh generation; it is the last step
	// that can refuse.
	if _, err := cp.Reconfigure(rt.patch()); err != nil {
		return fmt.Errorf("core: snapshot runtime config: %w", err)
	}
	for i, s := range dp.shards {
		if dp.concurrent {
			s.mu.Lock()
		}
		s.clusterer = staged[i]
		if dp.concurrent {
			s.mu.Unlock()
		}
	}
	dp.Deploy(qm)
	if lastDec != nil {
		cp.lastDec.Store(lastDec)
	}
	cp.failOpen.Store(failOpen)
	cp.consecStale.Store(consecStale)
	// The restored decision counts as fresh from this process's start:
	// staleness is measured against local clock time, which has no
	// relation to the saving process's timeline.
	now := int64(cp.rawClock.Now())
	cp.tickAt.Store(now)
	cp.lastDeployAt.Store(now)
	cp.deployments.Add(deployments)
	cp.panicsRecovered.Add(panics)
	cp.watchdogTrips.Add(trips)
	cp.failOpens.Add(engagements)
	for i, v := range append(assigned, routed...) {
		dp.restored.Add(0, i, v)
	}
	return nil
}

// patch converts a full RuntimeConfig into the all-fields patch that
// replays it through Reconfigure.
func (r RuntimeConfig) patch() RuntimePatch {
	return RuntimePatch{
		Ranking:        &r.Ranking,
		PollInterval:   &r.PollInterval,
		DeployDelay:    &r.DeployDelay,
		ReseedInterval: &r.ReseedInterval,
		FailOpenAfter:  &r.FailOpenAfter,
	}
}

// encodeDecision appends the optional last deployed decision; its
// clusters are cluster's Info section.
func encodeDecision(e *frame.Enc, dec *Decision) {
	e.Bool(dec != nil)
	if dec == nil {
		return
	}
	e.I64(int64(dec.At))
	e.I64(int64(dec.DeployedAt))
	cluster.AppendInfos(e, dec.Clusters)
	e.F64s(dec.Rank)
	e.Ints(dec.QueueOf)
}

// decodeDecision reads what encodeDecision wrote; a short read is left
// latched in d.
func decodeDecision(d *frame.Dec) *Decision {
	if !d.Bool() {
		return nil
	}
	return &Decision{
		At:         eventsim.Time(d.I64()),
		DeployedAt: eventsim.Time(d.I64()),
		Clusters:   cluster.ReadInfos(d),
		Rank:       d.F64s(),
		QueueOf:    d.Ints(),
	}
}
