package experiments

import (
	"strings"
	"testing"
)

// TestFleetShapes asserts the distributed-defense properties the fleet
// experiment exists to demonstrate: the merged global ranking protects
// benign traffic strictly better than EVERY single-node defense, the
// mid-pulse coordinator partition degrades nodes to the local ranking
// (never to undefended FIFO), and the fleet fully recovers after the
// heal.
func TestFleetShapes(t *testing.T) {
	r := quick(t, "fleet")

	fifo := findSeries(t, r, "FIFO/Output Benign")
	local := findSeries(t, r, "single-node/Output Benign")
	fl := findSeries(t, r, "fleet/Output Benign")
	part := findSeries(t, r, "fleet+partition/Output Benign")
	if len(fl.Y) == 0 || len(fl.Y) != len(fifo.Y) || len(fl.Y) != len(local.Y) || len(fl.Y) != len(part.Y) {
		t.Fatalf("series lengths: fifo %d, local %d, fleet %d, partition %d",
			len(fifo.Y), len(local.Y), len(fl.Y), len(part.Y))
	}

	// The tentpole acceptance: worst fleet node strictly beats the best
	// single-node defense on benign drops. The experiment computes both
	// figures itself and records the verdict in a note.
	verdict := noteWith(t, r, "fleet beats every single-node defense")
	if !strings.HasSuffix(verdict, "true") {
		t.Fatalf("fleet does not beat every single-node defense: %q", verdict)
	}

	// Aggregate view of the same fact: summed benign delivery under the
	// fleet exceeds both the single-node defenses and FIFO.
	sum := func(ys []float64) float64 {
		var s float64
		for _, y := range ys {
			s += y
		}
		return s
	}
	if fs, ls, fifos := sum(fl.Y), sum(local.Y), sum(fifo.Y); fs <= ls || fs <= fifos {
		t.Errorf("benign delivery: fleet %.1f, single-node %.1f, fifo %.1f", fs, ls, fifos)
	}

	// During the first pulse (10-20 s) both fleet legs are connected and
	// must hold benign throughput above the misranking single node.
	if lm, fm := mean(local.Y, 11, 20), mean(fl.Y, 11, 20); fm <= lm {
		t.Errorf("first-pulse benign throughput: fleet %.2f <= single-node %.2f", fm, lm)
	}

	// Partition narrative: connected before, local fallback (never FIFO)
	// during, fleet again after. The sampled ranking sources pin it.
	during := noteWith(t, r, "t=38s")
	if !strings.Contains(during, "fleet-fallback:local") || strings.Contains(during, "fifo") {
		t.Fatalf("partitioned nodes not on local fallback: %q", during)
	}
	for _, at := range []string{"t=32s", "t=48s"} {
		s := noteWith(t, r, at)
		if strings.Contains(s, "fallback") {
			t.Fatalf("nodes degraded while coordinator reachable: %q", s)
		}
	}
	if rec := noteWith(t, r, "full recovery"); !strings.HasSuffix(rec, "true") {
		t.Fatalf("fleet did not recover after the heal: %q", rec)
	}

	// The partition leg must have actually exercised the fallback: every
	// node engaged it at least once and frames were dropped in transit.
	eng := noteWith(t, r, "fallback engagements")
	if strings.HasPrefix(eng, "partition leg: 0 fallback") {
		t.Fatalf("partition never engaged the fallback: %q", eng)
	}
}

// noteWith returns the first note containing substr, failing the test
// if none does.
func noteWith(t *testing.T, r *Result, substr string) string {
	t.Helper()
	for _, n := range r.Notes {
		if strings.Contains(n, substr) {
			return n
		}
	}
	t.Fatalf("no note containing %q in %v", substr, r.Notes)
	return ""
}
