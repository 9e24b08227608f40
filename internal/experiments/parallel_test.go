package experiments

import (
	"slices"
	"strings"
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
// the worker pool: for a fixed seed, an experiment's rendered output and
// CSV on 8 workers must be the bytes the sequential run pins in the
// golden manifest's seed-7 lines. The experiments listed first are cheap
// in quick mode and run in every mode; the rest skip under -short and
// -race, as the golden manifest does.
func TestParallelMatchesSequential(t *testing.T) {
	want := map[string]string{}
	for _, line := range goldenLines(t) {
		sum, name, _ := strings.Cut(line, "  ")
		want[name] = sum
	}
	everyMode := []string{"fig8", "fig10", "fig9", "pushback", "tcp", "fleet", "liveops"}
	for _, id := range append(everyMode, "fig2", "fig3", "fig6", "fig7", "fig11", "table3",
		"schedulers", "ablations", "adversarial", "chaos") {
		t.Run(id, func(t *testing.T) {
			if !slices.Contains(everyMode, id) && (testing.Short() || raceDetector()) {
				t.Skip("skipped under -short and -race")
			}
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			par := e.Run(Options{Quick: true, Seed: 7, Parallel: 8})
			for ext, out := range map[string]string{"txt": par.Render(), "csv": par.CSV()} {
				if name, got := "seed7/"+id+"."+ext, hashOf(out); got != want[name] {
					t.Errorf("on 8 workers %s hashes to %s, the manifest pins %s:\n%s", name, got, want[name], out)
				}
			}
		})
	}
}
