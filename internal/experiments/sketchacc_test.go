package experiments

import (
	"strings"
	"testing"
)

func TestSketchAccShape(t *testing.T) {
	r := quick(t, "sketchacc")
	compat := findSeries(t, r, "compatible (FNV)")
	turbo := findSeries(t, r, "turbo")
	cu := findSeries(t, r, "turbo+CU")
	cuEq := findSeries(t, r, "turbo+CU equal-mem")

	// Conservative update never loosens the turbo estimate: pointwise
	// the CU series sits at or below plain turbo.
	for i := range turbo.Y {
		if cu.Y[i] > turbo.Y[i] {
			t.Fatalf("point %d: turbo+CU overestimate %.3f > turbo %.3f",
				i, cu.Y[i], turbo.Y[i])
		}
	}
	// The headline trade: at equal memory turbo+CU is tighter than the
	// seed-compatible sketch at full load.
	last := len(compat.Y) - 1
	if cuEq.Y[last] >= compat.Y[last] {
		t.Fatalf("equal-mem turbo+CU %.3f not tighter than compatible %.3f",
			cuEq.Y[last], compat.Y[last])
	}
	// Error grows with load for every sketch (collisions accumulate).
	for _, s := range []Series{compat, turbo, cu, cuEq} {
		if s.Y[last] < s.Y[0] {
			t.Fatalf("%s overestimate shrank with load: %v", s.Name, s.Y)
		}
	}
	noteWith(t, r, "mean overestimate at full load")
	noteWith(t, r, "false heavies at threshold")
}

func TestVictimsShape(t *testing.T) {
	r := quick(t, "victims")
	listed := findSeries(t, r, "victims listed")

	// Pre-attack baseline windows list nobody; every attack window
	// lists at least the pulsed target.
	for w := 0; w < 2; w++ {
		if listed.Y[w] != 0 {
			t.Fatalf("window %d (pre-attack) listed %v victims", w, listed.Y[w])
		}
	}
	for w := 2; w < len(listed.Y); w++ {
		if listed.Y[w] < 1 {
			t.Fatalf("attack window %d listed no victims", w)
		}
	}
	// The rotating targets each carry share in some window.
	for _, name := range []string{"dst A (share)", "dst B (share)", "dst C (share)"} {
		s := findSeries(t, r, name)
		var peak float64
		for _, y := range s.Y {
			if y > peak {
				peak = y
			}
		}
		if peak < 0.2 {
			t.Fatalf("%s never crossed the activation share: peak %.3f", name, peak)
		}
	}
	// Headline numbers: every pulse window detected, zero benign
	// destinations ever listed.
	if n := noteWith(t, r, "pulse windows"); !strings.Contains(n, "(100%)") {
		t.Fatalf("pulse detection below 100%%: %q", n)
	}
	if n := noteWith(t, r, "benign destinations ever listed"); !strings.HasSuffix(n, ": 0") {
		t.Fatalf("benign false positives: %q", n)
	}
}
