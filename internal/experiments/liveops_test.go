package experiments

import (
	"strings"
	"testing"
)

// TestLiveOpsShapes asserts the operational safety properties the
// liveops experiment exists to demonstrate: a mid-pulse hot
// reconfigure and a mid-pulse kill/restore each cost the benign class
// nothing measurable, the snapshot round-trips byte-identically, the
// restored process's first deployed decision is the pre-kill decision,
// and its first recomputed deployment keeps the attack demoted (no
// re-convergence window).
func TestLiveOpsShapes(t *testing.T) {
	r := quick(t, "liveops")

	for _, n := range r.Notes {
		if strings.HasPrefix(n, "ERROR:") {
			t.Fatalf("live operation failed: %s", n)
		}
	}
	note := func(prefix string) string {
		t.Helper()
		for _, n := range r.Notes {
			if strings.HasPrefix(n, prefix) {
				return n
			}
		}
		t.Fatalf("missing note %q in %v", prefix, r.Notes)
		return ""
	}

	if n := note("reconfigure: config generation"); !strings.Contains(n, "1 -> 2") {
		t.Errorf("reconfigure did not bump the generation once: %s", n)
	}
	if n := note("restore: snapshot"); !strings.Contains(n, "byte-identical: true") {
		t.Errorf("snapshot round trip not byte-identical: %s", n)
	}
	if n := note("restore: first deployed decision"); !strings.Contains(n, ": true") {
		t.Errorf("restored process did not resume under the pre-kill decision: %s", n)
	}
	if n := note("restore: first recomputed deployment"); !strings.Contains(n, ": true") {
		t.Errorf("restored process re-converged instead of resuming: %s", n)
	}

	clean := findSeries(t, r, "clean/Output Benign")
	reconf := findSeries(t, r, "reconfigured/Output Benign")
	stitched := findSeries(t, r, "kill+restore/Output Benign")
	if len(clean.Y) == 0 || len(reconf.Y) != len(clean.Y) {
		t.Fatalf("series lengths: clean %d, reconfigured %d", len(clean.Y), len(reconf.Y))
	}

	sum := func(ys []float64) float64 {
		var s float64
		for _, v := range ys {
			s += v
		}
		return s
	}
	// Zero op-attributable loss, with a 2% tolerance for scheduling
	// differences after the swap (the patched ranking legitimately makes
	// different — here slightly better — decisions, never stalls).
	if cs, rs := sum(clean.Y), sum(reconf.Y); rs < 0.98*cs {
		t.Errorf("reconfigure cost benign throughput: %.1f vs clean %.1f", rs, cs)
	}
	// The kill forfeits at most the in-flight queue (~100 ms of line
	// rate) and the restored process takes over without re-converging.
	if cs, ss := sum(clean.Y), sum(stitched.Y); ss < 0.98*cs {
		t.Errorf("kill/restore cost benign throughput: %.1f vs clean %.1f", ss, cs)
	}

	// Identical until the operation lands at t=35s: both legs replay the
	// same deterministic traffic through the same defense, so any early
	// divergence means the operation leaked backwards in time.
	for i := 0; i < 35 && i < len(clean.Y); i++ {
		if clean.Y[i] != reconf.Y[i] {
			t.Fatalf("reconfigured run diverges at t=%ds, before the patch", i)
		}
		if i < len(stitched.Y) && clean.Y[i] != stitched.Y[i] {
			t.Fatalf("kill/restore run diverges at t=%ds, before the kill", i)
		}
	}
}
