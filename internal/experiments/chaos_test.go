package experiments

import "testing"

// TestChaosShapes asserts the fail-open safety properties the chaos
// experiment exists to demonstrate: under the injected faults the
// defense never does worse for benign traffic than an undefended FIFO
// facing the same faults, the watchdog actually fired during the
// controller stalls, and throughput recovers once the faults clear.
func TestChaosShapes(t *testing.T) {
	r := quick(t, "chaos")

	fifo := findSeries(t, r, "FIFO+faults/Output Benign")
	turbo := findSeries(t, r, "ACC-Turbo+faults/Output Benign")
	clean := findSeries(t, r, "ACC-Turbo clean/Output Benign")
	if len(turbo.Y) != len(fifo.Y) || len(turbo.Y) == 0 {
		t.Fatalf("series lengths: turbo %d, fifo %d", len(turbo.Y), len(fifo.Y))
	}

	// Aggregate safety: total benign delivery under faults at or above
	// the no-defense baseline experiencing the identical faults.
	var fifoSum, turboSum float64
	for i := range fifo.Y {
		fifoSum += fifo.Y[i]
		turboSum += turbo.Y[i]
	}
	if turboSum < fifoSum {
		t.Errorf("benign delivery under faults: turbo %.1f < fifo %.1f", turboSum, fifoSum)
	}

	// During pulses the defense must still help despite the stalled
	// controller (fail-open bounds the damage; ranked deploys before and
	// after the stall do the mitigating). First pulse is 10-20 s.
	if fm, tm := mean(fifo.Y, 11, 20), mean(turbo.Y, 11, 20); tm < fm {
		t.Errorf("first-pulse benign throughput: turbo %.2f < fifo %.2f", tm, fm)
	}

	// Recovery: in the final quiet decade (no pulses, no faults) the
	// faulted run is back at the clean run's steady state.
	n := len(turbo.Y)
	recTail, cleanTail := mean(turbo.Y, n-10, n), mean(clean.Y, n-10, n)
	if cleanTail <= 0 || recTail < 0.9*cleanTail {
		t.Errorf("no recovery: faulted tail %.2f vs clean tail %.2f", recTail, cleanTail)
	}

	// The run must actually have exercised the machinery: faults
	// injected, watchdog tripped, fail-open engaged at least once.
	wantNotes := []string{"injected:", "watchdog:", "recovery:"}
	if len(r.Notes) < len(wantNotes) {
		t.Fatalf("notes missing: %v", r.Notes)
	}
	for i, prefix := range wantNotes {
		found := false
		for _, n := range r.Notes {
			if len(n) >= len(prefix) && n[:len(prefix)] == prefix {
				found = true
				_ = i
			}
		}
		if !found {
			t.Errorf("note %q missing from %v", prefix, r.Notes)
		}
	}
}
