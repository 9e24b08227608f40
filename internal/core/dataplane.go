package core

import (
	"fmt"
	"sync"

	"accturbo/internal/cluster"
	"accturbo/internal/packet"
	"accturbo/internal/telemetry"
)

// Dataplane is the per-packet half of ACC-Turbo: feature extraction →
// cluster assignment → queue classification. It owns no timers and has
// no dependency on any clock or engine — state changes only when a
// packet is offered (Classify, or ObserveShardFrames from the ingest
// rings) or when the control plane pushes a decision in (Deploy,
// ResetStats, Reseed).
//
// The pipeline is sharded like a multi-pipe Tofino (§7.1 runs one
// clusterer per pipeline): packets are demuxed to one of N independent
// clusterers by an RSS-style flow hash, so packets of the same flow
// always meet the same clusterer. Cluster slot IDs are a shared
// namespace across shards — slot i of every shard feeds the same row of
// the deployed queue mapping, exactly as the per-pipe register copies
// on hardware share one controller-installed mapping.
//
// Concurrency contract: with concurrent=false (the deterministic
// simulator path) the Dataplane must be driven from a single goroutine
// and the hot path takes no locks. With concurrent=true each shard is
// guarded by its own mutex, the queue mapping is swapped atomically,
// and Classify/ObserveShardFrames are safe from any number of goroutines; the
// clusterer hot path itself stays lock-free — callers that demux
// flow-affine traffic one goroutine per shard (RSS) never contend.
type Dataplane struct {
	shards     []*shard
	concurrent bool

	// queueMap is the live cluster-slot→queue mapping installed by the
	// control plane. Readers load it atomically; Deploy swaps it whole,
	// so a packet sees either the old or the new mapping, never a mix.
	// The Hot generation counts deployments since construction.
	queueMap Hot[[]int]

	// pairs counts packets per (cluster slot, queue) pair, cell
	// slot*NumQueues+q: one add per packet, on the queue that was live
	// when the packet was classified. The per-slot assignment totals
	// are its row sums and the per-queue routing totals its column
	// sums, both taken at read time (Counts). It is stripe-padded so
	// concurrent writers rarely share a cache line: each shard owns
	// countStripes stripes and a packet picks one by a cheap header
	// hint, which also spreads the multiple ingest goroutines feeding
	// one shard. Reads aggregate across all stripes lock-free.
	pairs *telemetry.VecCounter

	// scratch recycles ObserveShardFrames' pair accumulator across
	// batches (and, in concurrent mode, across ring consumers).
	scratch sync.Pool

	// restored holds the per-slot then per-queue totals RestoreState
	// loaded (a snapshot carries those, not pair cells); reads add them.
	restored *telemetry.VecCounter

	// cfg sits after the per-packet fields, so their offsets do not move
	// with the size of the configuration.
	cfg Config
}

// batchScratch is ObserveShardFrames' reusable working memory: the
// per-batch pair-count accumulator, flushed to the telemetry stripes
// once per batch instead of once per packet.
type batchScratch struct {
	pairs []uint64 // per-(slot, queue) counts for the current batch
}

// countStripes is the number of counter stripes per shard. Power of
// two; the stripe hint masks against it.
const countStripes = 8

// stripeOfPort picks the counter stripe for a packet from source port
// sport on shard si: the shard's stripe block, sub-striped by the
// port's low bits so concurrent writers to one shard spread across
// cache lines. Any value is correct — stripes only partition the same
// aggregated total.
func stripeOfPort(si int, sport uint16) int {
	return si*countStripes + int(sport)&(countStripes-1)
}

// shard is one independent clustering pipeline. The mutex is only taken
// in concurrent mode. The padding keeps neighbouring shards' write-hot
// state (mutex, clusterer pointer targets) on distinct cache lines.
type shard struct {
	mu        sync.Mutex
	clusterer *cluster.Online
	_         [40]byte // pad to a cache line past the mutex
}

// NewDataplane builds the per-packet pipeline with cfg.Shards clusterer
// shards (minimum 1). concurrent selects the locking mode documented on
// Dataplane. It panics on an invalid configuration: every caller in
// this package validates cfg first, and the benchmark harness pins the
// one-value signature.
func NewDataplane(cfg Config, concurrent bool) *Dataplane {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	d := &Dataplane{
		cfg:        cfg,
		concurrent: concurrent,
		pairs:      telemetry.NewVecCounter(cfg.Clustering.MaxClusters*cfg.NumQueues, n*countStripes),
		restored:   telemetry.NewVecCounter(cfg.Clustering.MaxClusters+cfg.NumQueues, 1),
	}
	for i := 0; i < n; i++ {
		d.shards = append(d.shards, &shard{clusterer: cluster.NewOnline(cfg.Clustering)})
	}
	d.scratch.New = func() any {
		return &batchScratch{pairs: make([]uint64, cfg.Clustering.MaxClusters*cfg.NumQueues)}
	}
	qm := make([]int, cfg.Clustering.MaxClusters)
	d.queueMap.Store(&qm)
	return d
}

// Config returns the (defaulted) configuration.
func (d *Dataplane) Config() Config { return d.cfg }

// NumShards returns the number of clustering pipelines.
func (d *Dataplane) NumShards() int { return len(d.shards) }

// ShardOf returns the shard index packet p demuxes to: an FNV-1a hash
// over the flow 5-tuple, so all packets of a flow — and therefore all
// packets of a tight aggregate — meet the same clusterer.
func (d *Dataplane) ShardOf(p *packet.Packet) int {
	if len(d.shards) == 1 {
		return 0
	}
	return int(packet.FlowHash(p) % uint32(len(d.shards)))
}

// ShardOfFrame is ShardOf for a raw frame view: the same flow hash over
// the same 5-tuple, read straight from the frame bytes.
func (d *Dataplane) ShardOfFrame(v *packet.FrameView) int {
	if len(d.shards) == 1 {
		return 0
	}
	return int(v.FlowHash() % uint32(len(d.shards)))
}

// QueueFor maps an assigned cluster slot to its live priority queue.
// Unknown or out-of-range slots (a packet observed against a clusterer
// generation the controller has not seen yet, or a corrupted ID) route
// to the lowest-priority queue — never to queue 0, which would hand an
// attacker the highest priority by default.
func (d *Dataplane) QueueFor(clusterID int) int {
	return d.queueIn(*d.queueMap.Load(), clusterID)
}

// queueIn is QueueFor against an already-loaded mapping, so
// ObserveShardFrames loads the atomic pointer once per batch instead of
// once per packet.
func (d *Dataplane) queueIn(qm []int, clusterID int) int {
	if clusterID < 0 || clusterID >= len(qm) {
		return d.cfg.NumQueues - 1
	}
	return qm[clusterID]
}

// Classify is the full per-packet data-plane step: assign the packet
// to a cluster slot on its shard, then look the slot up in the live
// mapping. The (slot, queue) pair is counted on one of the shard's
// stripes — the one counter add a packet pays.
func (d *Dataplane) Classify(p *packet.Packet) (cluster.Assignment, int) {
	si := d.ShardOf(p)
	s := d.shards[si]
	var a cluster.Assignment
	if !d.concurrent {
		a = s.clusterer.Observe(p)
	} else {
		s.mu.Lock()
		a = s.clusterer.Observe(p)
		s.mu.Unlock()
	}
	q := d.QueueFor(a.Cluster)
	d.pairs.Add(stripeOfPort(si, p.SrcPort), a.Cluster*d.cfg.NumQueues+q, 1)
	return a, q
}

// flushCounts drains a scratch's per-run pair counts onto one
// telemetry stripe, zeroing them for the next run.
func (d *Dataplane) flushCounts(stripe int, sc *batchScratch) {
	for i, cnt := range sc.pairs {
		if cnt != 0 {
			d.pairs.Add(stripe, i, cnt)
			sc.pairs[i] = 0
		}
	}
}

// FrameFeatures is one wire frame reduced to exactly what the
// clustering stage consumes: its feature values (the first NF entries,
// where NF is the configured feature-set length) and its IP total
// length. The ingest producer fills one per frame with
// packet.FrameView.Features while the header bytes are still hot in
// cache, so the classifying consumer never touches frame memory at all.
type FrameFeatures struct {
	Vals [packet.NumFeatures]uint32
	Size uint32
}

// ObserveShardFrames runs the full per-packet step over a batch of
// frames already reduced to their feature values and already demuxed to
// shard si — the per-shard ring consumer path. Each entry feeds the shard's
// clusterer through the fused ObserveFeatures path, so no Packet struct
// is ever materialized. Frames carry no ground-truth label, so all
// traffic counts as benign in the label telemetry — exactly what a
// hardware deployment sees. The demux invariant is that every entry's
// frame hashed to shard si (breaking it silently degrades clustering
// quality but nothing else). When queues is non-nil it must be at least
// len(frames) long; entry i receives frame i's priority queue. The pair
// counters (Counts, Observed) advance exactly as if every frame had
// gone through Classify.
func (d *Dataplane) ObserveShardFrames(si int, frames []FrameFeatures, queues []int) {
	n := len(frames)
	if n == 0 {
		return
	}
	if queues != nil && len(queues) < n {
		panic("core: ObserveShardFrames queues shorter than frames")
	}
	qm := *d.queueMap.Load()
	sc := d.scratch.Get().(*batchScratch)
	nf, nq := len(d.cfg.Clustering.Features), d.cfg.NumQueues
	s := d.shards[si]
	if d.concurrent {
		s.mu.Lock()
	}
	for i := range frames {
		f := &frames[i]
		a := s.clusterer.ObserveFeatures(f.Vals[:nf], uint64(f.Size), false)
		q := d.queueIn(qm, a.Cluster)
		sc.pairs[a.Cluster*nq+q]++
		if queues != nil {
			queues[i] = q
		}
	}
	if d.concurrent {
		s.mu.Unlock()
	}
	// One consumer owns a shard, so its stripe block's first stripe is
	// as good as any and stays on one cache line.
	d.flushCounts(si*countStripes, sc)
	d.scratch.Put(sc)
}

// Counts returns the per-cluster-slot assignment totals and the
// per-priority-queue routing totals since construction (plus what a
// restore loaded). They are the row and column sums of one read of
// every pair cell, so the two agree on the packet total even
// mid-stream. Each cell
// holds the queue that was live when its packets were classified, so
// both stay exact across deploys that remap queues. Safe from any
// goroutine; values may trail in-flight packets.
func (d *Dataplane) Counts() (assigned, routed []uint64) {
	nc, nq, base := d.cfg.Clustering.MaxClusters, d.cfg.NumQueues, d.restored.Values()
	assigned, routed = base[:nc:nc], base[nc:]
	for i, v := range d.pairs.Values() {
		assigned[i/nq] += v
		routed[i%nq] += v
	}
	return assigned, routed
}

// Describe registers the data plane's counters on a telemetry registry
// as prefix_assigned_pkts_<slot> and prefix_routed_pkts_<queue>.
func (d *Dataplane) Describe(reg *telemetry.Registry, prefix string) {
	for c := range d.cfg.Clustering.MaxClusters {
		reg.CounterFunc(fmt.Sprintf("%s_assigned_pkts_%d", prefix, c), func() uint64 { a, _ := d.Counts(); return a[c] })
	}
	for q := range d.cfg.NumQueues {
		reg.CounterFunc(fmt.Sprintf("%s_routed_pkts_%d", prefix, q), func() uint64 { _, r := d.Counts(); return r[q] })
	}
}

// Observed returns the total number of packets observed across all
// shards: the sum of the pair cells, which every observing path adds
// to (per packet, or per batch when it flushes), plus the assignments
// a restore loaded. Atomic loads only, so it is safe from any goroutine
// in both modes, and exact once ingest has quiesced.
func (d *Dataplane) Observed() uint64 {
	n := d.pairs.Total()
	for c := range d.cfg.Clustering.MaxClusters {
		n += d.restored.Value(c)
	}
	return n
}

// Snapshot returns the interpretable cluster view the control plane
// ranks: shard 0's snapshot verbatim for a single pipeline, or the
// slot-wise merge across shards (see cluster.MergeSnapshots). The
// returned Infos are deep copies owned by the caller; the data plane
// never mutates them afterwards.
func (d *Dataplane) Snapshot() []cluster.Info {
	if len(d.shards) == 1 {
		s := d.shards[0]
		if !d.concurrent {
			return s.clusterer.Snapshot()
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.clusterer.Snapshot()
	}
	snaps := make([][]cluster.Info, len(d.shards))
	for i, s := range d.shards {
		if d.concurrent {
			s.mu.Lock()
		}
		snaps[i] = s.clusterer.Snapshot()
		if d.concurrent {
			s.mu.Unlock()
		}
	}
	return cluster.MergeSnapshots(d.cfg.Clustering.Distance, snaps...)
}

// ResetStats zeroes the per-window counters on every shard (the
// controller calls this after each poll).
func (d *Dataplane) ResetStats() {
	for _, s := range d.shards {
		if d.concurrent {
			s.mu.Lock()
		}
		s.clusterer.ResetStats()
		if d.concurrent {
			s.mu.Unlock()
		}
	}
}

// Reseed discards all clusters on every shard.
func (d *Dataplane) Reseed() {
	for _, s := range d.shards {
		if d.concurrent {
			s.mu.Lock()
		}
		s.clusterer.Reseed()
		if d.concurrent {
			s.mu.Unlock()
		}
	}
}

// Deploy installs a new cluster→queue mapping. The slice is copied, so
// the caller may reuse it; readers switch atomically.
func (d *Dataplane) Deploy(queueOf []int) {
	qm := make([]int, len(queueOf))
	copy(qm, queueOf)
	d.queueMap.Store(&qm)
}

// QueueMap returns a copy of the live cluster→queue mapping.
func (d *Dataplane) QueueMap() []int {
	qm := *d.queueMap.Load()
	out := make([]int, len(qm))
	copy(out, qm)
	return out
}
