package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
)

// Snapshot container format. The payload is framed by a magic string, a
// format version, an explicit length, and a CRC-32 (IEEE) trailer, so a
// restore can reject truncation, bit rot, and version skew before
// touching any live state:
//
//	"ACCSNAP1" | version u16 | payloadLen u64 | payload | crc32 u32
//
// All integers are little-endian. The payload captures everything a
// fresh process needs to resume defending without a re-convergence
// window: the live runtime config (not its generation — that counts
// Reconfigure calls in one process's lifetime), the deployed queue map,
// every shard's learned clusterer state, the last deployed decision,
// fail-open status, and the lifetime telemetry counters. Save → restore
// → save is byte-identical, which is what the CI determinism gate
// checks.
const (
	snapMagic   = "ACCSNAP1"
	snapVersion = 1
)

// SaveState serializes the full defense state of the dataplane/control
// plane pair into w. It is safe to call on a live concurrent pipeline:
// shard clusterers are locked one at a time while marshaled.
func SaveState(w io.Writer, dp *Dataplane, cp *ControlPlane) error {
	var e enc

	// Structural fingerprint: a snapshot only restores into a pipeline
	// with identical shape. Feature-set and clustering details are
	// checked per shard by cluster.Unmarshal's own fingerprint.
	e.u32(uint32(len(dp.shards)))
	e.u32(uint32(dp.cfg.NumQueues))
	e.u32(uint32(dp.cfg.Clustering.MaxClusters))

	rt := *cp.rt.Load()
	e.u8(uint8(rt.Ranking))
	e.i64(int64(rt.PollInterval))
	e.i64(int64(rt.DeployDelay))
	e.i64(int64(rt.ReseedInterval))
	e.i64(int64(rt.FailOpenAfter))
	e.i64(int64(rt.WatchdogInterval))

	qm := dp.QueueMap()
	e.u32(uint32(len(qm)))
	for _, q := range qm {
		e.u32(uint32(q))
	}

	for _, s := range dp.shards {
		if dp.concurrent {
			s.mu.Lock()
		}
		blob := s.clusterer.Marshal()
		if dp.concurrent {
			s.mu.Unlock()
		}
		e.u32(uint32(len(blob)))
		e.b = append(e.b, blob...)
	}

	encodeDecision(&e, cp.lastDec.Load())

	e.bool(cp.failOpen.Load())
	e.u32(cp.consecStale.Load())

	e.u64(cp.deployments.Value())
	e.u64(cp.panicsRecovered.Value())
	e.u64(cp.watchdogTrips.Value())
	e.u64(cp.failOpens.Value())

	for _, vec := range [][]uint64{dp.assigned.Values(), dp.routed.Values()} {
		e.u32(uint32(len(vec)))
		for _, v := range vec {
			e.u64(v)
		}
	}

	var hdr [18]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], snapVersion)
	binary.LittleEndian.PutUint64(hdr[10:18], uint64(len(e.b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(e.b); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(e.b))
	_, err := w.Write(crc[:])
	return err
}

// RestoreState loads a SaveState snapshot into a freshly constructed
// pipeline: the dataplane must not have observed any packet and the
// control plane must not have deployed anything, so a restore can never
// silently merge two histories. The runtime config travels through the
// normal Reconfigure path (validated, tickers rescheduled under a new
// generation); the restored decision becomes LastDecision and its queue
// map is live immediately, so the first control-loop tick ranks
// already-learned clusters instead of re-converging.
func RestoreState(r io.Reader, dp *Dataplane, cp *ControlPlane) error {
	if dp.Observed() != 0 || cp.deployments.Value() != 0 {
		return fmt.Errorf("core: RestoreState needs a fresh pipeline (observed=%d deployments=%d)",
			dp.Observed(), cp.deployments.Value())
	}

	var hdr [18]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("core: snapshot header: %w", err)
	}
	if string(hdr[:8]) != snapMagic {
		return fmt.Errorf("core: not a snapshot (bad magic %q)", hdr[:8])
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != snapVersion {
		return fmt.Errorf("core: snapshot version %d, this build reads %d", v, snapVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[10:18])
	if plen > 1<<31 {
		return fmt.Errorf("core: implausible snapshot payload length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("core: snapshot payload: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return fmt.Errorf("core: snapshot checksum: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return fmt.Errorf("core: snapshot checksum mismatch (corrupt): %08x != %08x", got, want)
	}

	d := dec{b: payload}
	if got, want := int(d.u32()), len(dp.shards); got != want {
		return fmt.Errorf("core: snapshot has %d shards, pipeline has %d", got, want)
	}
	if got, want := int(d.u32()), dp.cfg.NumQueues; got != want {
		return fmt.Errorf("core: snapshot has %d queues, pipeline has %d", got, want)
	}
	if got, want := int(d.u32()), dp.cfg.Clustering.MaxClusters; got != want {
		return fmt.Errorf("core: snapshot has %d cluster slots, pipeline has %d", got, want)
	}

	rt := RuntimeConfig{
		Ranking:          Ranking(d.u8()),
		PollInterval:     eventsim.Time(d.i64()),
		DeployDelay:      eventsim.Time(d.i64()),
		ReseedInterval:   eventsim.Time(d.i64()),
		FailOpenAfter:    eventsim.Time(d.i64()),
		WatchdogInterval: eventsim.Time(d.i64()),
	}

	qm := make([]int, d.u32())
	for i := range qm {
		qm[i] = int(d.u32())
	}

	blobs := make([][]byte, len(dp.shards))
	for i := range blobs {
		blobs[i] = d.bytes(int(d.u32()))
	}

	dec_, err := decodeDecision(&d)
	if err != nil {
		return err
	}

	failOpen := d.bool()
	consecStale := d.u32()

	deployments := d.u64()
	panics := d.u64()
	trips := d.u64()
	engagements := d.u64()

	assigned := make([]uint64, d.u32())
	for i := range assigned {
		assigned[i] = d.u64()
	}
	routed := make([]uint64, d.u32())
	for i := range routed {
		routed[i] = d.u64()
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("core: %d trailing bytes after snapshot payload", len(d.b)-d.off)
	}
	if len(assigned) != dp.assigned.Len() || len(routed) != dp.routed.Len() {
		return fmt.Errorf("core: snapshot counter widths %d/%d do not match pipeline %d/%d",
			len(assigned), len(routed), dp.assigned.Len(), dp.routed.Len())
	}

	// A blob can still be refused by its shard's clusterer; ask every
	// shard before anything changes, so a refusal leaves all of them,
	// and the runtime config, as they were.
	for i, s := range dp.shards {
		if dp.concurrent {
			s.mu.Lock()
		}
		err := s.clusterer.Validate(blobs[i])
		if dp.concurrent {
			s.mu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", i, err)
		}
	}

	// Everything decoded and validated — commit. The runtime config goes
	// through Reconfigure so it is validated and the tickers land on the
	// restored cadence under a fresh generation; it is the last step
	// that can refuse.
	if _, err := cp.Reconfigure(rt.patch()); err != nil {
		return fmt.Errorf("core: snapshot runtime config: %w", err)
	}
	for i, s := range dp.shards {
		if dp.concurrent {
			s.mu.Lock()
		}
		err := s.clusterer.Unmarshal(blobs[i])
		if dp.concurrent {
			s.mu.Unlock()
		}
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", i, err)
		}
	}
	dp.Deploy(qm)
	if dec_ != nil {
		cp.lastDec.Store(dec_)
	}
	cp.failOpen.Store(failOpen)
	cp.consecStale.Store(consecStale)
	// The restored decision counts as fresh from this process's start:
	// staleness is measured against local clock time, which has no
	// relation to the saving process's timeline.
	cp.lastDeployAt.Store(int64(cp.rawClock.Now()))
	cp.deployments.Add(deployments)
	cp.panicsRecovered.Add(panics)
	cp.watchdogTrips.Add(trips)
	cp.failOpens.Add(engagements)
	for i, v := range assigned {
		if v != 0 {
			dp.assigned.Add(0, i, v)
		}
	}
	for i, v := range routed {
		if v != 0 {
			dp.routed.Add(0, i, v)
		}
	}
	return nil
}

// patch converts a full RuntimeConfig into the all-fields patch that
// replays it through Reconfigure.
func (r RuntimeConfig) patch() RuntimePatch {
	return RuntimePatch{
		Ranking:          &r.Ranking,
		PollInterval:     &r.PollInterval,
		DeployDelay:      &r.DeployDelay,
		ReseedInterval:   &r.ReseedInterval,
		FailOpenAfter:    &r.FailOpenAfter,
		WatchdogInterval: &r.WatchdogInterval,
	}
}

// encodeDecision appends the optional last deployed decision.
func encodeDecision(e *enc, dec *Decision) {
	e.bool(dec != nil)
	if dec == nil {
		return
	}
	e.i64(int64(dec.At))
	e.i64(int64(dec.DeployedAt))
	e.u32(uint32(len(dec.Clusters)))
	for _, info := range dec.Clusters {
		e.u32(uint32(info.ID))
		e.bool(info.Active)
		e.u32(uint32(len(info.Ranges)))
		for _, rg := range info.Ranges {
			e.u32(rg.Min)
			e.u32(rg.Max)
		}
		e.u32(uint32(len(info.NominalCardinality)))
		for _, n := range info.NominalCardinality {
			e.u32(uint32(n))
		}
		e.u64(info.Packets)
		e.u64(info.Bytes)
		e.u64(info.TotalPackets)
		e.u64(info.Benign)
		e.u64(info.Malicious)
		e.f64(info.Size)
	}
	e.u32(uint32(len(dec.Rank)))
	for _, r := range dec.Rank {
		e.f64(r)
	}
	e.u32(uint32(len(dec.QueueOf)))
	for _, q := range dec.QueueOf {
		e.u32(uint32(q))
	}
}

// decodeDecision reads what encodeDecision wrote.
func decodeDecision(d *dec) (*Decision, error) {
	if !d.bool() {
		return nil, d.err
	}
	out := &Decision{
		At:         eventsim.Time(d.i64()),
		DeployedAt: eventsim.Time(d.i64()),
	}
	out.Clusters = make([]cluster.Info, d.u32())
	for i := range out.Clusters {
		info := cluster.Info{
			ID:     int(d.u32()),
			Active: d.bool(),
		}
		info.Ranges = make([]cluster.Range, d.u32())
		for j := range info.Ranges {
			info.Ranges[j].Min = d.u32()
			info.Ranges[j].Max = d.u32()
		}
		info.NominalCardinality = make([]int, d.u32())
		for j := range info.NominalCardinality {
			info.NominalCardinality[j] = int(d.u32())
		}
		info.Packets = d.u64()
		info.Bytes = d.u64()
		info.TotalPackets = d.u64()
		info.Benign = d.u64()
		info.Malicious = d.u64()
		info.Size = d.f64()
		if d.err != nil {
			return nil, d.err
		}
		out.Clusters[i] = info
	}
	out.Rank = make([]float64, d.u32())
	for i := range out.Rank {
		out.Rank[i] = d.f64()
	}
	out.QueueOf = make([]int, d.u32())
	for i := range out.QueueOf {
		out.QueueOf[i] = int(d.u32())
	}
	return out, d.err
}

// enc is a minimal append-only little-endian encoder (the snapshot
// counterpart of cluster's private codec).
type enc struct{ b []byte }

func (e *enc) u8(v uint8) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// dec is the matching decoder; the first short read latches err.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("core: snapshot truncated at byte %d", d.off)
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) bool() bool { return d.u8() != 0 }

func (d *dec) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}
