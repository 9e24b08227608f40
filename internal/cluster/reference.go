package cluster

import (
	"fmt"

	"accturbo/internal/packet"
	"accturbo/internal/sketch"
)

// Reference is the naive implementation of the online clusterer, for
// every configuration: per-cluster allocated range slices, map-backed
// nominal sets, a per-packet distance-metric switch, and a full O(|C|^2)
// closestPair scan on every exhaustive-search step. It has two jobs. It
// is the only implementation of the configurations the paper studies as
// quality baselines and does not deploy (§8.1, Fig. 10: Anime, Euclidean,
// normalised Manhattan, exhaustive search, the hybrid) — NewOnline hands
// those to it, so it is what fig10, fig11b and the normalisation ablation
// run. And it is the semantic oracle of Online's table-driven path for
// the deployed configuration: equivalence tests assert both produce
// identical assignments and snapshots on the same trace. Built for
// clarity, not speed (BenchmarkObserveReference), and it has no
// serialized form.
type Reference struct {
	cfg      Config
	feats    packet.FeatureSet
	nominal  []bool
	scale    []float64
	clusters []*refState
	valbuf   []uint32
	nextUID  uint64
	Observed uint64
}

type refState struct {
	uid      uint64
	min, max []uint32
	sets     []map[uint32]struct{}
	blooms   []*sketch.Bloom
	setCard  []int

	center []float64
	count  uint64

	packets, bytes    uint64
	totalPackets      uint64
	benign, malicious uint64
}

// NewReference builds a naive clusterer with the same semantics as
// NewOnline. It panics on an invalid configuration.
func NewReference(cfg Config) *Reference {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	o := &Reference{
		cfg:     cfg,
		feats:   cfg.Features,
		nominal: make([]bool, len(cfg.Features)),
		valbuf:  make([]uint32, len(cfg.Features)),
	}
	o.scale = make([]float64, len(cfg.Features))
	for i, f := range cfg.Features {
		o.nominal[i] = f.Nominal()
		o.scale[i] = 1
		if cfg.Normalize && !o.nominal[i] {
			o.scale[i] = 1 / (float64(f.MaxValue()) + 1)
		}
	}
	if cfg.SliceInit {
		o.sliceInit()
	}
	return o
}

func (o *Reference) sliceInit() {
	k := o.cfg.MaxClusters
	lead := -1
	for f := range o.feats {
		if !o.nominal[f] {
			lead = f
			break
		}
	}
	for i := 0; i < k; i++ {
		vals := make([]uint32, len(o.feats))
		c := o.newCluster(vals)
		c.count = 0
		for f, feat := range o.feats {
			if o.nominal[f] {
				if o.cfg.UseBloom {
					c.blooms[f].Reset()
				} else {
					delete(c.sets[f], 0)
				}
				c.setCard[f] = 0
				continue
			}
			max := uint64(feat.MaxValue()) + 1
			lo, hi := uint32(0), uint32(max-1)
			if f == lead {
				lo = uint32(max * uint64(i) / uint64(k))
				hi = uint32(max*uint64(i+1)/uint64(k) - 1)
			}
			c.min[f], c.max[f] = lo, hi
			if c.center != nil {
				c.center[f] = (float64(lo) + float64(hi)) / 2
			}
		}
		o.clusters = append(o.clusters, c)
	}
}

func (o *Reference) newCluster(vals []uint32) *refState {
	o.nextUID++
	n := len(o.feats)
	c := &refState{
		uid:     o.nextUID,
		min:     make([]uint32, n),
		max:     make([]uint32, n),
		setCard: make([]int, n),
	}
	if o.cfg.UseBloom {
		c.blooms = make([]*sketch.Bloom, n)
	} else {
		c.sets = make([]map[uint32]struct{}, n)
	}
	if o.cfg.Distance == Euclidean {
		c.center = make([]float64, n)
	}
	for i, v := range vals {
		c.min[i], c.max[i] = v, v
		if o.nominal[i] {
			if o.cfg.UseBloom {
				c.blooms[i] = sketch.NewBloom(bloomBits, bloomHashes)
				c.blooms[i].Insert(uint64(v))
			} else {
				c.sets[i] = map[uint32]struct{}{v: {}}
			}
			c.setCard[i] = 1
		}
		if c.center != nil {
			c.center[i] = float64(v)
		}
	}
	c.count = 1
	return c
}

func (c *refState) contains(o *Reference, i int, v uint32) bool {
	if o.nominal[i] {
		if o.cfg.UseBloom {
			return c.blooms[i].Contains(uint64(v))
		}
		_, ok := c.sets[i][v]
		return ok
	}
	return v >= c.min[i] && v <= c.max[i]
}

func (c *refState) absorb(o *Reference, vals []uint32) {
	for i, v := range vals {
		if o.nominal[i] {
			if !c.contains(o, i, v) {
				if o.cfg.UseBloom {
					c.blooms[i].Insert(uint64(v))
				} else {
					c.sets[i][v] = struct{}{}
				}
				c.setCard[i]++
			}
			continue
		}
		if v < c.min[i] {
			c.min[i] = v
		}
		if v > c.max[i] {
			c.max[i] = v
		}
	}
	if c.center != nil {
		for i, v := range vals {
			c.center[i] += learningRate * (float64(v) - c.center[i])
		}
	}
}

func (c *refState) mergeFrom(o *Reference, src *refState) {
	for i := range c.min {
		if o.nominal[i] {
			if o.cfg.UseBloom {
				panic("cluster: exhaustive search with Bloom sets is not supported")
			}
			for v := range src.sets[i] {
				if _, ok := c.sets[i][v]; !ok {
					c.sets[i][v] = struct{}{}
					c.setCard[i]++
				}
			}
			continue
		}
		if src.min[i] < c.min[i] {
			c.min[i] = src.min[i]
		}
		if src.max[i] > c.max[i] {
			c.max[i] = src.max[i]
		}
	}
	if c.center != nil {
		// Weighted centroid of the two clusters. Two empty clusters
		// (count 0, e.g. untouched slice-init tiles) take the plain
		// midpoint — the weighted form would divide by zero.
		tot := float64(c.count + src.count)
		for i := range c.center {
			if tot == 0 {
				c.center[i] = (c.center[i] + src.center[i]) / 2
			} else {
				c.center[i] = (c.center[i]*float64(c.count) + src.center[i]*float64(src.count)) / tot
			}
		}
	}
	c.count += src.count
	c.packets += src.packets
	c.bytes += src.bytes
	c.totalPackets += src.totalPackets
	c.benign += src.benign
	c.malicious += src.malicious
}

func (c *refState) account(size uint64, malicious bool) {
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
// cluster (seeding or merging per the search strategy) and extend it to
// cover p.
func (o *Reference) Observe(p *packet.Packet) Assignment {
	return o.observe(o.feats.Extract(p, o.valbuf), uint64(p.Size()), p.Label == packet.Malicious)
}

// observe is Observe for a packet already reduced to its feature values
// (what Online.ObserveFeatures forwards); vals is only read.
func (o *Reference) observe(vals []uint32, size uint64, malicious bool) Assignment {
	o.Observed++

	if len(o.clusters) < o.cfg.MaxClusters {
		if id, d := o.closest(vals); id >= 0 && d == 0 {
			o.clusters[id].account(size, malicious)
			return Assignment{Cluster: id, UID: o.clusters[id].uid, Distance: 0}
		}
		c := o.newCluster(vals)
		c.account(size, malicious)
		c.count--
		o.clusters = append(o.clusters, c)
		return Assignment{Cluster: len(o.clusters) - 1, UID: c.uid, Created: true}
	}

	id, d := o.closest(vals)

	if o.cfg.Search == Exhaustive && d > 0 {
		// Consider merging the two closest clusters and starting a new
		// cluster at p. Worth it iff the cost increase of the
		// cluster-cluster merge is below the cost increase of absorbing
		// p into its nearest cluster.
		mi, mj, md := o.closestPair()
		if mi >= 0 && md < d {
			o.clusters[mi].mergeFrom(o, o.clusters[mj])
			c := o.newCluster(vals)
			c.account(size, malicious)
			c.count--
			o.clusters[mj] = c
			return Assignment{Cluster: mj, UID: c.uid, Distance: 0, Created: true}
		}
	}

	c := o.clusters[id]
	if d > 0 || c.center != nil {
		c.absorb(o, vals)
	}
	c.account(size, malicious)
	return Assignment{Cluster: id, UID: c.uid, Distance: d}
}

func (o *Reference) closest(vals []uint32) (int, float64) {
	best, bestD := -1, 0.0
	for i, c := range o.clusters {
		d := o.distance(vals, c)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func (o *Reference) closestPair() (int, int, float64) {
	bi, bj, bd := -1, -1, 0.0
	for i := 0; i < len(o.clusters); i++ {
		for j := i + 1; j < len(o.clusters); j++ {
			d := o.mergeCost(o.clusters[i], o.clusters[j])
			if bi < 0 || d < bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	return bi, bj, bd
}

// Snapshot returns the interpretable view of all clusters.
func (o *Reference) Snapshot() []Info {
	out := make([]Info, len(o.clusters))
	for i, c := range o.clusters {
		info := Info{
			ID:                 i,
			Active:             true,
			Ranges:             make([]Range, len(o.feats)),
			NominalCardinality: make([]int, len(o.feats)),
			Packets:            c.packets,
			Bytes:              c.bytes,
			TotalPackets:       c.totalPackets,
			Benign:             c.benign,
			Malicious:          c.malicious,
			Size:               o.refClusterCost(c),
		}
		for f := range o.feats {
			if o.nominal[f] {
				info.NominalCardinality[f] = c.setCard[f]
			} else {
				info.Ranges[f] = Range{Min: c.min[f], Max: c.max[f]}
			}
		}
		out[i] = info
	}
	return out
}

// ResetStats zeroes the per-window counters on every cluster.
func (o *Reference) ResetStats() {
	for _, c := range o.clusters {
		c.packets, c.bytes, c.benign, c.malicious = 0, 0, 0, 0
	}
}

// Reseed discards all clusters (restoring the slice tiling when
// SliceInit is configured).
func (o *Reference) Reseed() {
	o.clusters = o.clusters[:0]
	if o.cfg.SliceInit {
		o.sliceInit()
	}
}

// SeedCenters force-seeds Euclidean clusters at the given centers.
func (o *Reference) SeedCenters(centers [][]float64) {
	if o.cfg.Distance != Euclidean {
		panic(fmt.Sprintf("cluster: SeedCenters on %v clusterer", o.cfg.Distance))
	}
	o.clusters = o.clusters[:0]
	for _, ctr := range centers {
		if len(ctr) != len(o.feats) {
			panic(fmt.Sprintf("cluster: center has %d dims, want %d", len(ctr), len(o.feats)))
		}
		vals := make([]uint32, len(ctr))
		for i, v := range ctr {
			if v < 0 {
				v = 0
			}
			vals[i] = uint32(v)
		}
		c := o.newCluster(vals)
		copy(c.center, ctr)
		c.count = 0
		o.clusters = append(o.clusters, c)
	}
}

// --- naive distance computations (per-packet switch dispatch) ---
//
// The three metrics of §4.2.3. Widths are float64 to keep the Anime
// product within range (the paper notes the exact product can need 157
// bits; the simulator only compares magnitudes, so float64 precision
// suffices). With Normalize set, ordinal widths and distances are scaled
// into (0, 1] so wide value spaces do not dominate.

func (o *Reference) distance(vals []uint32, c *refState) float64 {
	switch o.cfg.Distance {
	case Manhattan:
		return o.refManhattanPoint(vals, c)
	case Anime:
		return o.refAnimePoint(vals, c)
	case Euclidean:
		return o.refEuclideanPoint(vals, c)
	default:
		panic("cluster: unknown distance")
	}
}

func (o *Reference) mergeCost(a, b *refState) float64 {
	switch o.cfg.Distance {
	case Manhattan:
		return o.refManhattanMerge(a, b)
	case Anime:
		return o.refAnimeMerge(a, b)
	case Euclidean:
		return o.refEuclideanMerge(a, b)
	default:
		panic("cluster: unknown distance")
	}
}

func (o *Reference) refClusterCost(c *refState) float64 {
	switch o.cfg.Distance {
	case Anime:
		prod := 1.0
		for i := range o.feats {
			prod *= o.refFeatWidth(c, i)
		}
		return prod
	case Euclidean:
		// Centers carry no extent; use the tracked bounding box so
		// "size" remains meaningful for ranking ablations.
		fallthrough
	case Manhattan:
		sum := 0.0
		for i := range o.feats {
			sum += o.refFeatWidth(c, i) - 1
		}
		return sum
	default:
		panic("cluster: unknown distance")
	}
}

func (o *Reference) refFeatWidth(c *refState, i int) float64 {
	if o.nominal[i] {
		return float64(c.setCard[i])
	}
	return (float64(c.max[i]-c.min[i]) + 1) * o.scale[i]
}

func (o *Reference) refManhattanPoint(vals []uint32, c *refState) float64 {
	var d float64
	for i, v := range vals {
		if o.nominal[i] {
			if !c.contains(o, i, v) {
				d++
			}
			continue
		}
		switch {
		case v < c.min[i]:
			d += float64(c.min[i]-v) * o.scale[i]
		case v > c.max[i]:
			d += float64(v-c.max[i]) * o.scale[i]
		}
	}
	return d
}

func (o *Reference) refManhattanMerge(a, b *refState) float64 {
	var d float64
	for i := range a.min {
		if o.nominal[i] {
			union := a.setCard[i]
			for v := range b.sets[i] {
				if _, ok := a.sets[i][v]; !ok {
					union++
				}
			}
			d += float64(union - a.setCard[i] - b.setCard[i])
			continue
		}
		lo, hi := min(a.min[i], b.min[i]), max(a.max[i], b.max[i])
		d += (float64(hi-lo) - float64(a.max[i]-a.min[i]) - float64(b.max[i]-b.min[i])) * o.scale[i]
	}
	return d
}

func (o *Reference) refAnimePoint(vals []uint32, c *refState) float64 {
	before := 1.0
	after := 1.0
	for i, v := range vals {
		w := o.refFeatWidth(c, i)
		before *= w
		if o.nominal[i] {
			if !c.contains(o, i, v) {
				w++
			}
			after *= w
			continue
		}
		switch {
		case v < c.min[i]:
			after *= (float64(c.max[i]-v) + 1) * o.scale[i]
		case v > c.max[i]:
			after *= (float64(v-c.min[i]) + 1) * o.scale[i]
		default:
			after *= w
		}
	}
	return after - before
}

func (o *Reference) refAnimeMerge(a, b *refState) float64 {
	costA, costB, union := 1.0, 1.0, 1.0
	for i := range a.min {
		costA *= o.refFeatWidth(a, i)
		costB *= o.refFeatWidth(b, i)
		if o.nominal[i] {
			card := a.setCard[i]
			for v := range b.sets[i] {
				if _, ok := a.sets[i][v]; !ok {
					card++
				}
			}
			union *= float64(card)
			continue
		}
		lo, hi := min(a.min[i], b.min[i]), max(a.max[i], b.max[i])
		union *= (float64(hi-lo) + 1) * o.scale[i]
	}
	return union - costA - costB
}

func (o *Reference) refEuclideanPoint(vals []uint32, c *refState) float64 {
	var d float64
	for i, v := range vals {
		diff := (float64(v) - c.center[i]) * o.scale[i]
		d += diff * diff
	}
	return d
}

// refEuclideanMerge is Ward-style linkage: the increase in within-cluster
// squared error caused by merging two centroids.
func (o *Reference) refEuclideanMerge(a, b *refState) float64 {
	var d float64
	for i := range a.center {
		diff := (a.center[i] - b.center[i]) * o.scale[i]
		d += diff * diff
	}
	na, nb := float64(a.count), float64(b.count)
	if na+nb == 0 {
		return d
	}
	return d * na * nb / (na + nb)
}
