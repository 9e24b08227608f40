// Package cluster implements ACC-Turbo's traffic-aggregate inference
// (§4 of the paper): online clustering of packets into a bounded number
// of aggregates.
//
// The deployable configuration — range-based cluster representation,
// Manhattan distance, fast (linear) search — matches what fits a Tofino
// pipeline, is the default, and is the only one Online implements (see
// Config.Deployed). Every alternative the paper evaluates as a baseline
// (Fig. 10) — exhaustive search, the Anime (product) distance, Euclidean
// center-based clustering, normalised distances, the hybrid
// offline/online scheme — and this repository's Bloom-filter ablation
// have one implementation, the naive Reference,
// which an Online built for such a configuration forwards to and which is
// also the oracle the deployed path is tested against. Offline k-means is
// KMeans.
//
// Clusters carry ground-truth label counters (benign/malicious packets)
// strictly for evaluation: purity and recall metrics read them, but no
// clustering or scheduling decision ever does.
package cluster

import (
	"errors"
	"fmt"

	"accturbo/internal/packet"
)

// ErrBaselineSnapshot is returned when a snapshot is asked of, or offered
// to, a clusterer whose configuration is not the deployed one: the Fig. 10
// baselines, the Bloom-set ablation and clusterers of more than 64 slots
// run on Reference, which has no serialized form.
var ErrBaselineSnapshot = errors.New("cluster: snapshots need the deployed clustering configuration (manhattan, fast search, unnormalized, exact sets, at most 64 clusters)")

// Distance selects the distance/cost function (§4.2.3).
type Distance uint8

// Distance functions.
const (
	// Manhattan is the paper's deployable choice: the per-feature
	// distances from the packet to the cluster's range, summed.
	Manhattan Distance = iota
	// Anime is the product-form cost from Def. 4.1: the increase in
	// the product of per-feature range widths caused by absorbing the
	// packet. Exact but with an output space too wide for hardware.
	Anime
	// Euclidean is the squared distance to the cluster center; it
	// requires a center-based representation.
	Euclidean
)

// String names the distance function.
func (d Distance) String() string {
	switch d {
	case Manhattan:
		return "manhattan"
	case Anime:
		return "anime"
	case Euclidean:
		return "euclidean"
	default:
		return fmt.Sprintf("distance(%d)", uint8(d))
	}
}

// Search selects the clustering search strategy (§4.2.1).
type Search uint8

// Search strategies.
const (
	// Fast performs a linear scan: the packet joins its closest
	// cluster. Implementable at line rate.
	Fast Search = iota
	// Exhaustive additionally considers merging the two closest
	// clusters to free a slot for the packet. Quadratic; not
	// implementable on today's pipelines, kept as a quality baseline.
	Exhaustive
)

// String names the search strategy.
func (s Search) String() string {
	switch s {
	case Fast:
		return "fast"
	case Exhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("search(%d)", uint8(s))
	}
}

// The fixed parameters of the baseline clusterers: the Euclidean
// center-update step, and the size of the per-feature filters of
// UseBloom (bits, hash functions).
const (
	learningRate = 0.3
	bloomBits    = 4096
	bloomHashes  = 3
)

// Config parameterizes an online clusterer.
type Config struct {
	// MaxClusters is |C|, the bound on simultaneously tracked
	// aggregates (hardware: 4; simulation default: 10).
	MaxClusters int
	// Features lists the clustering dimensions in order.
	Features packet.FeatureSet
	// Distance picks the distance function. Euclidean implies a
	// center-based representation; Manhattan and Anime are
	// range-based.
	Distance Distance
	// Search picks fast (linear) or exhaustive (quadratic) search.
	Search Search
	// UseBloom stores nominal-feature value sets in Bloom filters (as
	// the hardware does) instead of exact sets. Exact sets are what
	// Online implements; Bloom sets are an ablation that runs on
	// Reference, one sketch.Bloom per cluster and feature, and cannot be
	// snapshotted (see Deployed).
	UseBloom bool
	// Normalize scales every per-feature distance by the feature's
	// value-space size, so a 16-bit port dimension cannot dominate
	// 8-bit byte dimensions. The paper's hardware cannot afford the
	// extra arithmetic (raw distances are the deployable default);
	// this knob exists for the ablation study.
	Normalize bool
	// SliceInit pre-creates all MaxClusters clusters as even slices of
	// each ordinal feature's value space (the initialization the
	// hardware prototype deploys), instead of seeding clusters from
	// the first arriving packets. Slice initialization is
	// order-independent, which matters when an attack dominates the
	// packet mix at startup. Reseed() restores the slices.
	SliceInit bool
}

// Validate checks the configuration, returning a descriptive error.
func (c *Config) Validate() error {
	if c.MaxClusters < 1 {
		return fmt.Errorf("cluster: MaxClusters %d < 1", c.MaxClusters)
	}
	if len(c.Features) == 0 {
		return fmt.Errorf("cluster: no features configured")
	}
	if c.Distance > Euclidean {
		return fmt.Errorf("cluster: unknown distance %d", c.Distance)
	}
	if c.Search > Exhaustive {
		return fmt.Errorf("cluster: unknown search %d", c.Search)
	}
	if c.Search == Exhaustive && c.UseBloom {
		return fmt.Errorf("cluster: exhaustive search requires exact nominal sets, not Bloom filters")
	}
	if c.SliceInit {
		// Slices tile the first ordinal feature; more slices than it has
		// values would leave some of them empty.
		for _, f := range c.Features {
			if f.Nominal() {
				continue
			}
			if space := uint64(f.MaxValue()) + 1; uint64(c.MaxClusters) > space {
				return fmt.Errorf("cluster: SliceInit cannot tile the %d values of %v into %d clusters", space, f, c.MaxClusters)
			}
			break
		}
	}
	return nil
}

// Deployed reports whether this is the configuration this repository
// deploys (§4.2: Manhattan distance, unnormalized, fast search, over exact
// nominal sets) within the 64 clusters a membership table word holds,
// which Online implements itself; every other one is a quality baseline,
// or a larger clusterer, that runs on Reference and cannot be
// snapshotted.
func (c *Config) Deployed() bool {
	return c.Distance == Manhattan && c.Search == Fast && !c.Normalize && !c.UseBloom && c.MaxClusters <= maxSlots
}

// DefaultConfig is the paper's deployable configuration over the given
// features: Manhattan distance, fast search, range representation.
func DefaultConfig(maxClusters int, features packet.FeatureSet) Config {
	return Config{
		MaxClusters: maxClusters,
		Features:    features,
		Distance:    Manhattan,
		Search:      Fast,
	}
}

// Assignment is the result of observing one packet.
type Assignment struct {
	// Cluster is the index (slot) of the cluster the packet joined,
	// which is what the scheduler's queue mapping keys on.
	Cluster int
	// UID identifies the cluster *generation*: it changes when a slot
	// is recycled (exhaustive-search merges, reseeding), so evaluation
	// code can score assignments without mixing epochs.
	UID uint64
	// Distance is the packet's distance to that cluster before the
	// ranges were extended to absorb it (0 when already covered).
	Distance float64
	// Created reports that the packet seeded a brand-new cluster.
	Created bool
}

// Range is a closed interval of ordinal feature values.
type Range struct {
	Min, Max uint32
}

// Width returns max-min, the range's cost contribution.
func (r Range) Width() uint32 { return r.Max - r.Min }

// Info is an interpretable snapshot of one cluster: its per-feature
// ranges or value sets plus traffic statistics. This is the operator
// view the paper highlights in §10 ("an operator can access the
// complete information of every action performed in real-time").
type Info struct {
	// ID is the cluster index.
	ID int
	// Active reports whether the cluster has been seeded.
	Active bool
	// Ranges holds, for each ordinal feature (by position in
	// Config.Features), the covered interval. Nominal positions hold a
	// zero Range.
	Ranges []Range
	// NominalCardinality holds, for each nominal feature position,
	// the number of distinct values admitted (0 for ordinal
	// positions; approximate when Bloom filters are in use).
	NominalCardinality []int
	// Packets and Bytes count traffic mapped to this cluster since
	// the last ResetStats (the controller's polling window).
	Packets, Bytes uint64
	// TotalPackets counts packets since the cluster was seeded.
	TotalPackets uint64
	// Benign and Malicious are ground-truth label counts over the
	// polling window — evaluation only.
	Benign, Malicious uint64
	// Size is the cluster's cost delta(c): the sum (Manhattan/
	// Euclidean) or product (Anime) of per-feature widths. Smaller
	// size means higher packet similarity.
	Size float64
}
