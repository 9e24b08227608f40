package cluster

// Distance and cost computations for the three metrics of §4.2.3,
// compiled down to kernels selected once at construction: the
// per-packet path never switches on the metric. For ranges, widths use
// float64 to keep the Anime product within range (the paper notes the
// exact product can need 157 bits; the simulator only compares
// magnitudes, so float64 precision suffices).
//
// Equivalence discipline: every kernel accumulates in the same feature
// order and with the same expression shapes as the retained Reference
// implementation, so both produce bit-identical float64 results and
// therefore identical assignments (asserted by TestFastPathMatchesReference).

// pointKernel returns d(p, c): the cost increase of absorbing the
// packet (given by its extracted feature values) into cluster ci.
// Nominal membership comes from the table's per-packet gather, which
// closest runs once before the scan.
// bound is the best distance found so far in the current scan; kernels
// whose partial sums are monotone may return early with any value
// >= bound once the cluster cannot win. Pass +inf for an exact result.
type pointKernel func(o *Online, vals []uint32, ci int, bound float64) float64

// mergeKernel returns d(ci, cj): the cost increase of merging the two
// clusters (exhaustive search only). Kernels are symmetric in (i, j).
type mergeKernel func(o *Online, i, j int) float64

// selectKernels binds the configured distance to concrete kernels.
func (o *Online) selectKernels() {
	switch o.cfg.Distance {
	case Manhattan:
		o.merge = manhattanMerge
		// The raw configuration has no point kernel: closest answers it
		// from the table and scanManhattanRaw.
		if !o.rawManhattan {
			o.dist = manhattanPointScaled
		}
	case Anime:
		o.dist, o.merge = animePoint, animeMerge
	case Euclidean:
		o.dist, o.merge = euclideanPoint, euclideanMerge
	default:
		panic("cluster: unknown distance")
	}
}

// clusterCost returns delta(c), the cluster's size under the configured
// cost function.
func (o *Online) clusterCost(ci int) float64 {
	switch o.cfg.Distance {
	case Anime:
		prod := 1.0
		for i := 0; i < o.nf; i++ {
			prod *= o.featWidth(ci, i)
		}
		return prod
	case Euclidean:
		// Centers carry no extent; use the tracked bounding box so
		// "size" remains meaningful for ranking ablations.
		fallthrough
	case Manhattan:
		sum := 0.0
		for i := 0; i < o.nf; i++ {
			sum += o.featWidth(ci, i) - 1
		}
		return sum
	default:
		panic("cluster: unknown distance")
	}
}

// featWidth is the per-feature cost of a cluster: range width + 1 for
// ordinal features (so a point has width 1), set cardinality for
// nominal ones. With Normalize set, ordinal widths are scaled into
// (0, 1] so wide value spaces do not dominate.
func (o *Online) featWidth(ci, i int) float64 {
	if j := o.nomIdx[i]; j >= 0 {
		return float64(o.mt.cardinality(ci, j))
	}
	base := ci * o.nf
	return (float64(o.max[base+i]-o.min[base+i]) + 1) * o.scale[i]
}

// --- Manhattan (Eq. 5) ---

// manhattanPointScaled is the Normalize variant; it keeps the exact
// feature-order float accumulation of the reference implementation.
func manhattanPointScaled(o *Online, vals []uint32, ci int, bound float64) float64 {
	base := ci * o.nf
	mn := o.min[base : base+len(vals)]
	mx := o.max[base : base+len(vals)]
	var d float64
	for i, v := range vals {
		if j := o.nomIdx[i]; j >= 0 {
			d += float64(o.mt.misses(ci, j))
		} else if v < mn[i] {
			d += float64(mn[i]-v) * o.scale[i]
		} else if v > mx[i] {
			d += float64(v-mx[i]) * o.scale[i]
		}
		if d >= bound {
			return d
		}
	}
	return d
}

func manhattanMerge(o *Online, ai, bi int) float64 {
	// Cost increase = width(union) - width(a) - width(b) per ordinal
	// feature (negative when the ranges overlap); for nominal
	// features, |union| - |a| - |b| (always <= 0), computable exactly
	// in set mode.
	ab, bb := ai*o.nf, bi*o.nf
	var d float64
	for i := 0; i < o.nf; i++ {
		if j := o.nomIdx[i]; j >= 0 {
			// |union| - |a| - |b| = |b \ a| - |b|.
			d += float64(o.mt.unionExtra(ai, bi, j) - o.mt.cardinality(bi, j))
			continue
		}
		lo, hi := o.min[ab+i], o.max[ab+i]
		if o.min[bb+i] < lo {
			lo = o.min[bb+i]
		}
		if o.max[bb+i] > hi {
			hi = o.max[bb+i]
		}
		d += (float64(hi-lo) - float64(o.max[ab+i]-o.min[ab+i]) - float64(o.max[bb+i]-o.min[bb+i])) * o.scale[i]
	}
	return d
}

// --- Anime (Eq. 1 / Def. 4.1) ---

func animePoint(o *Online, vals []uint32, ci int, _ float64) float64 {
	// No early exit: the cost is after-before, which is not monotone in
	// the feature index.
	base := ci * o.nf
	before := 1.0
	after := 1.0
	for i, v := range vals {
		w := o.featWidth(ci, i)
		before *= w
		if j := o.nomIdx[i]; j >= 0 {
			after *= w + float64(o.mt.misses(ci, j))
			continue
		}
		switch {
		case v < o.min[base+i]:
			after *= (float64(o.max[base+i]-v) + 1) * o.scale[i]
		case v > o.max[base+i]:
			after *= (float64(v-o.min[base+i]) + 1) * o.scale[i]
		default:
			after *= w
		}
	}
	return after - before
}

func animeMerge(o *Online, ai, bi int) float64 {
	ab, bb := ai*o.nf, bi*o.nf
	costA, costB, union := 1.0, 1.0, 1.0
	for i := 0; i < o.nf; i++ {
		costA *= o.featWidth(ai, i)
		costB *= o.featWidth(bi, i)
		if j := o.nomIdx[i]; j >= 0 {
			union *= float64(o.mt.cardinality(ai, j) + o.mt.unionExtra(ai, bi, j))
			continue
		}
		lo, hi := o.min[ab+i], o.max[ab+i]
		if o.min[bb+i] < lo {
			lo = o.min[bb+i]
		}
		if o.max[bb+i] > hi {
			hi = o.max[bb+i]
		}
		union *= (float64(hi-lo) + 1) * o.scale[i]
	}
	return union - costA - costB
}

// --- Euclidean (Eq. 2) ---

func euclideanPoint(o *Online, vals []uint32, ci int, bound float64) float64 {
	base := ci * o.nf
	ctr := o.center[base : base+len(vals)]
	var d float64
	for i, v := range vals {
		diff := (float64(v) - ctr[i]) * o.scale[i]
		d += diff * diff
		if d >= bound {
			return d
		}
	}
	return d
}

func euclideanMerge(o *Online, ai, bi int) float64 {
	// Ward-style linkage: the increase in within-cluster squared error
	// caused by merging two centroids.
	a, b := &o.clusters[ai], &o.clusters[bi]
	ab, bb := ai*o.nf, bi*o.nf
	var d float64
	for i := 0; i < o.nf; i++ {
		diff := (o.center[ab+i] - o.center[bb+i]) * o.scale[i]
		d += diff * diff
	}
	na, nb := float64(a.count), float64(b.count)
	if na+nb == 0 {
		return d
	}
	return d * na * nb / (na + nb)
}
