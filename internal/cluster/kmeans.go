package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"accturbo/internal/packet"
)

// Offline k-means is the paper's unlimited-resources baseline
// ("Off. KMeans" in Fig. 10): Lloyd's algorithm with k-means++
// seeding over a buffered batch of packets. The hybrid strategy
// ("Eucl. Fast In.") periodically re-seeds an online Euclidean
// clusterer from an offline solve.

// KMeans clusters batches of feature vectors.
type KMeans struct {
	K        int
	Features packet.FeatureSet
	MaxIter  int
	rng      *rand.Rand
}

// NewKMeans builds an offline k-means solver with deterministic
// seeding.
func NewKMeans(k int, features packet.FeatureSet, seed int64) *KMeans {
	if k < 1 {
		panic(fmt.Sprintf("cluster: k-means k=%d", k))
	}
	if len(features) == 0 {
		panic("cluster: k-means with no features")
	}
	return &KMeans{K: k, Features: features, MaxIter: 25, rng: rand.New(rand.NewSource(seed))}
}

// Fit runs k-means++ and Lloyd's iterations on the batch, returning the
// final centers and the assignment of each input packet.
func (km *KMeans) Fit(pkts []*packet.Packet) (centers [][]float64, assign []int) {
	points := make([][]float64, len(pkts))
	for i, p := range pkts {
		vals := km.Features.Extract(p, nil)
		v := make([]float64, len(vals))
		for j, x := range vals {
			v[j] = float64(x)
		}
		points[i] = v
	}
	return km.FitPoints(points)
}

// FitPoints is Fit over raw feature vectors.
func (km *KMeans) FitPoints(points [][]float64) (centers [][]float64, assign []int) {
	if len(points) == 0 {
		return nil, nil
	}
	k := km.K
	if k > len(points) {
		k = len(points)
	}
	centers = km.seedPlusPlus(points, k)
	assign = make([]int, len(points))
	for iter := 0; iter < km.MaxIter; iter++ {
		changed := false
		for i, pt := range points {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				d := sqDist(pt, ctr)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, len(points[0]))
		}
		for i, pt := range points {
			c := assign[i]
			counts[c]++
			for j, v := range pt {
				sums[c][j] += v
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster at the farthest point.
				centers[c] = append([]float64(nil), points[km.farthestPoint(points, centers)]...)
				continue
			}
			for j := range centers[c] {
				centers[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return centers, assign
}

// seedPlusPlus performs k-means++ initialization.
func (km *KMeans) seedPlusPlus(points [][]float64, k int) [][]float64 {
	centers := make([][]float64, 0, k)
	first := points[km.rng.Intn(len(points))]
	centers = append(centers, append([]float64(nil), first...))
	d2 := make([]float64, len(points))
	for len(centers) < k {
		var total float64
		for i, pt := range points {
			best := math.Inf(1)
			for _, ctr := range centers {
				if d := sqDist(pt, ctr); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with centers; duplicate one.
			centers = append(centers, append([]float64(nil), points[0]...))
			continue
		}
		target := km.rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		centers = append(centers, append([]float64(nil), points[idx]...))
	}
	return centers
}

func (km *KMeans) farthestPoint(points [][]float64, centers [][]float64) int {
	best, bestD := 0, -1.0
	for i, pt := range points {
		d := math.Inf(1)
		for _, ctr := range centers {
			if dd := sqDist(pt, ctr); dd < d {
				d = dd
			}
		}
		if d > bestD {
			best, bestD = i, d
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

// Hybrid is the "Eucl. Fast In." strategy: an online Euclidean
// clusterer whose centers are periodically recomputed offline from a
// buffer of recent packets.
type Hybrid struct {
	online *Reference
	km     *KMeans
	buf    []*packet.Packet
	// RefitEvery triggers an offline solve after this many packets.
	RefitEvery int
}

// NewHybrid builds a hybrid clusterer with the given cluster budget,
// features, and refit period.
func NewHybrid(maxClusters int, features packet.FeatureSet, refitEvery int, seed int64) *Hybrid {
	if refitEvery < 1 {
		panic(fmt.Sprintf("cluster: hybrid refit period %d", refitEvery))
	}
	cfg := Config{
		MaxClusters: maxClusters,
		Features:    features,
		Distance:    Euclidean,
		Search:      Fast,
	}
	return &Hybrid{
		online:     NewReference(cfg),
		km:         NewKMeans(maxClusters, features, seed),
		RefitEvery: refitEvery,
	}
}

// Observe assigns the packet online and may trigger an offline refit.
func (h *Hybrid) Observe(p *packet.Packet) Assignment {
	a := h.online.Observe(p)
	h.buf = append(h.buf, p.Clone())
	if len(h.buf) >= h.RefitEvery {
		centers, _ := h.km.Fit(h.buf)
		h.online.SeedCenters(centers)
		h.buf = h.buf[:0]
	}
	return a
}
