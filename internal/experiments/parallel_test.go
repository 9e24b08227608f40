package experiments

import (
	"sync/atomic"
	"testing"
)

// TestRunParallelCoversAllIndices checks the pool visits each index
// exactly once at several worker counts, including the sequential and
// worker-surplus edges.
func TestRunParallelCoversAllIndices(t *testing.T) {
	for _, w := range []int{0, 1, 3, 8, 64} {
		var hits [37]atomic.Int32
		RunParallel(Options{Parallel: w}, len(hits), func(i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("Parallel=%d: index %d ran %d times, want 1", w, i, got)
			}
		}
	}
}

// TestParallelMatchesSequential is the determinism regression test for
// the tentpole guarantee: for a fixed seed, an experiment's rendered
// output and CSV must be byte-identical whether its sweep points run
// sequentially or on 8 workers. What those bytes are is
// TestGoldenManifest's to pin.
func TestParallelMatchesSequential(t *testing.T) {
	for _, id := range []string{"fig8", "fig10"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			seq := e.Run(Options{Quick: true, Seed: 7})
			par := e.Run(Options{Quick: true, Seed: 7, Parallel: 8})
			if s, p := seq.Render(), par.Render(); s != p {
				t.Errorf("rendered output diverges\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
			}
			if s, p := seq.CSV(), par.CSV(); s != p {
				t.Errorf("CSV output diverges\n--- sequential ---\n%s\n--- parallel ---\n%s", s, p)
			}
		})
	}
}
