package cluster

import (
	"math"
	"math/bits"

	"accturbo/internal/packet"
)

// Online is the online clusterer of Appendix B: it maintains at most
// |C| clusters and assigns every packet to exactly one of them,
// extending that cluster's ranges/sets when the packet falls outside.
//
// The per-packet path is built for line rate, mirroring the constraints
// that drove the paper's hardware design (§4), and the first of them is
// that a packet is compared against all clusters at once.
//
// Online implements the deployed configuration only — Manhattan distance,
// unnormalized, fast search, exact nominal sets, at most 64 clusters
// (Config.Deployed) — seeded from packets or from slices. It has no
// distance kernels, no centers, no merge-cost cache and no Bloom filters:
// built for any other configuration (the Fig. 10 baselines, the Bloom-set
// ablation, more clusters), it is a handle on a Reference and forwards
// every call to it (see baseline below).
//
// Which packets never scan. The membership table alone (see memberTable)
// answers the two kinds of packet it can name the nearest cluster for.
// Distance zero: some cluster already covers the packet — every nominal
// value admitted, every ordinal value inside the range. Distance one: no
// cluster admits all of the packet's nominal values, and some cluster
// misses exactly one of them while its ranges contain the packet;
// distances are integers, and the only other way to be at distance one —
// no nominal miss, one unit outside one range — needs a cluster that
// admits them all (see memberTable.gather for the argument). Either way the cost is one cell
// load per nominal feature and per byte-wide ordinal feature, an AND, and
// a count-trailing-zeros for the lowest index, which is the cluster a
// scan with ties to the lowest index would have returned; and a
// distance-one answer is admitted by one cell write, not by a walk over
// the features (see observe). Ordinals wider than a byte (ip.len, ip.id,
// whole addresses) have no cells and are checked arithmetically on the
// candidates the table leaves, in index order. Every other packet — two
// unseen values away, or outside a range of the only clusters that admit
// its nominal values — is scanned cluster by cluster, in integers
// (scanManhattanRaw).
//
// What keeps the table true. Ranges live in min/max below and are the
// truth (and what Marshal writes); the table's span cells are derived
// from them, and every write of a range passes through one of two
// doors: setRange, a freshly occupied slot's first range (seeding, slice
// initialisation, Restore), and widen, growth (absorb), which sets
// only the cells the range grew by. Slots are freed only all at once, by
// discard, which zeroes the cells. Upkeep therefore costs in proportion
// to what moved.
//
// Cluster ranges live in two contiguous structure-of-arrays slices
// (min/max, indexed cluster*numFeats+feature) instead of per-cluster
// allocations, so the scan walks flat memory.
//
// The steady-state Observe path performs no allocations. Reference in
// reference.go is the naive implementation of the same algorithm;
// equivalence tests assert both produce identical assignments.
//
// Online is not safe for concurrent use; the simulator is
// single-threaded by design.
type Online struct {
	feats  packet.FeatureSet
	nf     int   // len(feats)
	nomIdx []int // per feature position: index into mt.feats, -1 if ordinal
	ordPos []int // positions of the ordinal features, ascending

	// Flattened cluster geometry: cluster c covers feature f in
	// [min[c*nf+f], max[c*nf+f]], preallocated for every cluster slot.
	min, max []uint32

	// clusters holds the seeded slots by value; its backing array has an
	// entry per slot, so seeding and reseeding never allocate.
	clusters []clusterState
	mt       *memberTable // nominal membership and byte-wide range coverage of every slot

	spanIdx []int    // per feature position: index into mt.spans, -1 if nominal or wider than a byte
	widePos []int    // positions of the ordinal features the table has no span for
	valbuf  []uint32 // scratch: feature values of the current packet
	nextUID uint64
	// Observed counts packets seen since construction.
	Observed uint64

	// baseline is set instead of everything above but feats, nf and
	// valbuf when the configuration is not the deployed one: it then holds
	// the clusters, and observe, Snapshot, ResetStats, Reseed, NumClusters
	// and SeedCenters forward to it. The seam is here, not in the callers,
	// so core's shards hold one concrete type and the per-packet path of
	// the deployed configuration pays one predictable branch for it.
	baseline *Reference

	// cfg sits after the per-packet fields, so their offsets do not move
	// with the size of the configuration.
	cfg Config
}

// clusterState holds the per-cluster state that is not part of the
// flattened geometry or the membership table: identity and traffic
// statistics.
type clusterState struct {
	uid   uint64
	count uint64 // packets since seed (part of the serialized state)

	packets, bytes    uint64 // since last ResetStats
	totalPackets      uint64
	benign, malicious uint64
}

// NewOnline builds an online clusterer. It panics on an invalid
// configuration (configs are produced by code, not user input).
func NewOnline(cfg Config) *Online {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := newOnline(cfg, cfg.MaxClusters)
	if cfg.SliceInit && o.baseline == nil {
		o.sliceInit()
	}
	return o
}

// newOnline allocates a clusterer with no clusters and room for `slots`
// of them, at least cfg.MaxClusters. Everything that depends on the slot count —
// the table's cell width, the geometry arrays — is sized here, once; more
// slots than clusters only buys a test wider cells than its cluster count
// needs.
func newOnline(cfg Config, slots int) *Online {
	nf := len(cfg.Features)
	o := &Online{cfg: cfg, feats: cfg.Features, nf: nf, valbuf: make([]uint32, nf)}
	if !cfg.Deployed() {
		o.baseline = NewReference(cfg)
		return o
	}
	o.nomIdx, o.spanIdx = make([]int, nf), make([]int, nf)
	o.mt = newMemberTable(cfg.Features, slots)
	for i := range cfg.Features {
		o.nomIdx[i], o.spanIdx[i] = -1, -1
	}
	for j, mf := range o.mt.feats {
		o.nomIdx[mf.pos] = j
	}
	for j, mf := range o.mt.spans {
		o.spanIdx[mf.pos] = j
	}
	for i, f := range cfg.Features {
		if f.Nominal() {
			continue
		}
		o.ordPos = append(o.ordPos, i)
		if o.spanIdx[i] < 0 {
			o.widePos = append(o.widePos, i)
		}
	}
	o.clusters = make([]clusterState, 0, slots)
	o.min, o.max = make([]uint32, slots*nf), make([]uint32, slots*nf)
	return o
}

// sliceInit pre-creates MaxClusters clusters that partition the value
// space of the *first ordinal feature* into even slices, with every
// other ordinal feature starting at its full range. This mirrors the
// hardware prototype's controller, which tiles the destination-address
// space so the initial assignment is order-independent. Nominal sets
// start empty.
func (o *Online) sliceInit() {
	k := o.cfg.MaxClusters
	lead := -1
	if len(o.ordPos) > 0 {
		lead = o.ordPos[0]
	}
	for i := 0; i < k; i++ {
		o.occupy()
		for f, feat := range o.feats {
			if o.nomIdx[f] >= 0 {
				// Slices carry no nominal admissions until traffic
				// arrives.
				o.setRange(i, f, 0, 0)
				continue
			}
			max := uint64(feat.MaxValue()) + 1
			lo, hi := uint32(0), uint32(max-1)
			if f == lead {
				lo = uint32(max * uint64(i) / uint64(k))
				hi = uint32(max*uint64(i+1)/uint64(k) - 1)
			}
			o.setRange(i, f, lo, hi)
		}
	}
}

// occupy starts a new cluster in the next free slot, with a fresh UID and
// zeroed statistics; the caller gives it its ranges with setRange. The
// slot carries no bit in the table: discard cleared it.
func (o *Online) occupy() *clusterState {
	o.clusters = o.clusters[:len(o.clusters)+1]
	o.nextUID++
	c := &o.clusters[len(o.clusters)-1]
	*c = clusterState{uid: o.nextUID}
	return c
}

// discard drops every cluster, emptying its nominal sets and every span.
func (o *Online) discard() {
	for ci := range o.clusters {
		o.mt.clearSlot(ci)
	}
	o.mt.clearSpans()
	o.clusters = o.clusters[:0]
}

// newCluster seeds a cluster in the next free slot with the given feature
// values, writing its geometry into the flattened arrays.
func (o *Online) newCluster(vals []uint32) (slot int, c *clusterState) {
	slot, c = len(o.clusters), o.occupy()
	for i, v := range vals {
		o.setRange(slot, i, v, v)
		if j := o.nomIdx[i]; j >= 0 {
			o.mt.admit(slot, j, v)
		}
	}
	c.count = 1
	return slot, c
}

// setRange gives freshly occupied slot ci its range at feature position
// f, and the span cells that range contains their bit.
func (o *Online) setRange(ci, f int, lo, hi uint32) {
	if s := o.spanIdx[f]; s >= 0 {
		o.mt.setSpan(ci, s, lo, hi)
	}
	o.min[ci*o.nf+f], o.max[ci*o.nf+f] = lo, hi
}

// widen grows cluster ci's range at ordinal position f to contain v, and
// gives the span cells it grew by their bit.
func (o *Online) widen(ci, f int, v uint32) {
	i, s := ci*o.nf+f, o.spanIdx[f]
	if mn := o.min[i]; v < mn {
		if s >= 0 {
			o.mt.setSpan(ci, s, v, mn-1)
		}
		o.min[i] = v
	}
	if mx := o.max[i]; v > mx {
		if s >= 0 {
			o.mt.setSpan(ci, s, mx+1, v)
		}
		o.max[i] = v
	}
}

// absorb extends cluster ci to cover vals.
func (o *Online) absorb(ci int, vals []uint32) {
	base := ci * o.nf
	for i, v := range vals {
		if j := o.nomIdx[i]; j >= 0 {
			// closest gathered this packet's misses: only they need
			// admitting.
			if o.mt.misses(ci, j) != 0 {
				o.mt.admit(ci, j, v)
			}
			continue
		}
		if v < o.min[base+i] || v > o.max[base+i] {
			o.widen(ci, i, v)
		}
	}
}

// account records one packet's traffic statistics against the cluster.
func (c *clusterState) account(size uint64, malicious bool) {
	c.count++
	c.packets++
	c.totalPackets++
	c.bytes += size
	if malicious {
		c.malicious++
	} else {
		c.benign++
	}
}

// Observe runs one step of Algorithm 1 for packet p: find the closest
// cluster (seeding one while slots are free) and extend it to cover p.
func (o *Online) Observe(p *packet.Packet) Assignment {
	vals := o.feats.Extract(p, o.valbuf)
	return o.observe(vals, uint64(p.Size()), p.Label == packet.Malicious)
}

// ObserveFeatures is Observe for a packet already reduced to its
// feature values — the wire-speed ingest entry point, fed by the fused
// frame decoder (packet.ParseFrame and FrameView.Features) so no Packet
// is ever materialized. vals must hold exactly the configured feature
// set's values in set order; size is the wire length in bytes. Both
// paths share one implementation, so assignments are bit-identical to
// Observe on the equivalent packet. vals is only read.
func (o *Online) ObserveFeatures(vals []uint32, size uint64, malicious bool) Assignment {
	if len(vals) != o.nf {
		panic("cluster: ObserveFeatures values do not match the configured feature set")
	}
	return o.observe(vals, size, malicious)
}

// observe is the shared step behind Observe and ObserveFeatures.
func (o *Online) observe(vals []uint32, size uint64, malicious bool) Assignment {
	o.Observed++
	if o.baseline != nil {
		return o.baseline.observe(vals, size, malicious)
	}

	// Seed phase: the first |C| distinct arrivals each start a cluster
	// (unless an existing cluster already covers the packet exactly).
	if len(o.clusters) < o.cfg.MaxClusters {
		if id, d, _ := o.closest(vals); id >= 0 && d == 0 {
			o.clusters[id].account(size, malicious)
			return Assignment{Cluster: id, UID: o.clusters[id].uid, Distance: 0}
		}
		slot, c := o.newCluster(vals)
		c.account(size, malicious)
		c.count-- // account() bumped it; seed already counted once
		return Assignment{Cluster: slot, UID: c.uid, Created: true}
	}

	id, d, near := o.closest(vals)
	c := &o.clusters[id]
	switch {
	case near >= 0:
		// A near miss: one nominal value to admit, no range grows.
		o.mt.admit(id, near, vals[o.mt.feats[near].pos])
	case d > 0:
		o.absorb(id, vals)
	}
	c.account(size, malicious)
	return Assignment{Cluster: id, UID: c.uid, Distance: d}
}

// closest returns the index and distance of the cluster nearest to
// vals, or (-1, +inf) when no clusters exist. Ties break toward the
// lowest index, matching the hardware's deterministic comparison tree.
// The table is gathered once for all clusters before any of them is
// looked at.
//
// The packets the table can decide never scan. The gather names the
// clusters at distance zero, or — when no cluster admits all of the
// packet's nominal values, so that nothing is closer than 1 and only a
// single nominal miss inside every range is that close (see
// memberTable.gather for the two-shape argument) — the clusters at
// distance one, and the lowest-indexed
// candidate that also contains the packet's wide ordinals (see covering)
// is the cluster the scan's strict < would have kept. For a distance-one
// answer near is the one nominal feature (index into mt.feats) the
// cluster misses, which is all observe has to admit; it is -1 otherwise.
// Every other packet — some cluster admits every nominal value but a
// range excludes the packet, every candidate fails a wide ordinal,
// nothing is within 1 — is scanned.
func (o *Online) closest(vals []uint32) (ci int, d float64, near int) {
	if len(o.clusters) == 0 {
		return -1, math.Inf(1), -1
	}
	if td := o.mt.gather(vals, len(o.clusters)); td >= 0 {
		if ci = o.covering(vals); ci >= 0 {
			if td == 0 {
				return ci, 0, -1
			}
			return ci, 1, o.mt.missed(ci)
		}
	}
	ci, d = o.scanManhattanRaw(vals)
	return ci, d, -1
}

// covering returns the lowest-indexed candidate the gather left in the
// table's cover bits that also contains the packet's wider ordinals —
// the one a scan with ties to the lowest index would return among
// clusters at the gather's distance — or -1. The cover bits are the
// clusters at that distance on every feature the table holds; what is
// left to check, in index order, is the ordinals it has no cells for.
func (o *Online) covering(vals []uint32) int {
candidates:
	for cover := o.mt.cover; cover != 0; cover &= cover - 1 {
		ci := bits.TrailingZeros64(cover)
		for _, f := range o.widePos {
			if v := vals[f]; v < o.min[ci*o.nf+f] || v > o.max[ci*o.nf+f] {
				continue candidates
			}
		}
		return ci
	}
	return -1
}

// scanManhattanRaw is the scan, for a packet the table has no answer
// for, fused and in integers: per cluster, the branch-free sum of the ordinal range distances plus the
// gathered count of nominal misses. Every term is an integer below 2^32
// and there are at most 255 of them, so the int64 sum converts to
// exactly the float64 that Reference accumulates term by term; strict <
// keeps ties on the lowest index.
func (o *Online) scanManhattanRaw(vals []uint32) (int, float64) {
	nf, ord := o.nf, o.ordPos
	mn, mx := o.min, o.max
	best, bestD := -1, int64(math.MaxInt64)
	for ci, base := 0, 0; ci < len(o.clusters); ci, base = ci+1, base+nf {
		var d int64
		for _, m := range o.mt.miss {
			d += int64(m >> ci & 1)
		}
		for _, f := range ord {
			v := int64(vals[f])
			d += max(int64(mn[base+f])-v, 0) + max(v-int64(mx[base+f]), 0)
		}
		if d < bestD {
			best, bestD = ci, d
		}
	}
	return best, float64(bestD)
}

// Snapshot returns the interpretable view of all clusters. The returned
// slices are copies; mutating them does not affect the clusterer.
func (o *Online) Snapshot() []Info {
	if o.baseline != nil {
		return o.baseline.Snapshot()
	}
	out := make([]Info, len(o.clusters))
	for i := range o.clusters {
		c := &o.clusters[i]
		info := Info{
			ID:                 i,
			Active:             true,
			Ranges:             make([]Range, o.nf),
			NominalCardinality: make([]int, o.nf),
			Packets:            c.packets,
			Bytes:              c.bytes,
			TotalPackets:       c.totalPackets,
			Benign:             c.benign,
			Malicious:          c.malicious,
			Size:               o.clusterCost(i),
		}
		base := i * o.nf
		for f := range o.feats {
			if j := o.nomIdx[f]; j >= 0 {
				info.NominalCardinality[f] = o.mt.cardinality(i, j)
			} else {
				info.Ranges[f] = Range{Min: o.min[base+f], Max: o.max[base+f]}
			}
		}
		out[i] = info
	}
	return out
}

// ResetStats zeroes the per-window counters (packets, bytes, labels) on
// every cluster. The ACC-Turbo controller calls this after each poll.
func (o *Online) ResetStats() {
	if o.baseline != nil {
		o.baseline.ResetStats()
		return
	}
	for i := range o.clusters {
		c := &o.clusters[i]
		c.packets, c.bytes, c.benign, c.malicious = 0, 0, 0, 0
	}
}

// Reseed discards all clusters (restoring the slice tiling when
// SliceInit is configured). The controller uses this to let the
// clustering re-form when aggregates go stale (e.g. between attack
// pulses).
func (o *Online) Reseed() {
	if o.baseline != nil {
		o.baseline.Reseed()
		return
	}
	o.discard()
	if o.cfg.SliceInit {
		o.sliceInit()
	}
}
