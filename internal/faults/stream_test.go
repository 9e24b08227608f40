package faults

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"accturbo/internal/eventsim"
)

// TestChaosPlanDeterministic: the schedule render is a pure function of
// the seed and spec; internal/manifest pins one render's bytes.
func TestChaosPlanDeterministic(t *testing.T) {
	spec := StreamSpec{CorruptEvery: 4096, ResetEvery: 16384, DelayEvery: 8192, DelayFor: 5 * eventsim.Millisecond}
	a, b := spec.Plan(11, 3), spec.Plan(11, 3)
	if a != b {
		t.Fatal("identical specs rendered different plans")
	}
	if strings.Count(a, "\n") < 10 {
		t.Fatalf("plan suspiciously empty:\n%s", a)
	}
	for _, want := range []string{"corrupt mask=", "reset", "delay"} {
		if !strings.Contains(a, want) {
			t.Fatalf("plan missing %q events:\n%s", want, a)
		}
	}
	if spec.Plan(12, 3) == a {
		t.Fatal("different seeds rendered identical plans")
	}
}

// TestChaosProcessMatchesPlan: the relay applies Plan's schedule at
// Plan's offsets whatever the read size — the same corrupted offsets and
// masks, every delay, the first reset — and applies and counts nothing
// past the reset, whose bytes are never forwarded.
func TestChaosProcessMatchesPlan(t *testing.T) {
	spec := StreamSpec{CorruptEvery: 512, ResetEvery: 16384, DelayEvery: 512, DelayFor: eventsim.Millisecond}
	type event struct {
		off  int
		what string
	}
	var planned []event
	wantReset := -1
	for _, line := range strings.Split(spec.Plan(7, 1), "\n") {
		f := strings.Fields(line) // conn=0 dir=c->s @1234 corrupt mask=0x5a
		if len(f) < 4 || f[1] != "dir=c->s" {
			continue
		}
		off, err := strconv.Atoi(strings.TrimPrefix(f[2], "@"))
		if err != nil {
			t.Fatal(err)
		}
		if f[3] == "reset" && wantReset < 0 {
			wantReset = off
		}
		planned = append(planned, event{off, strings.Join(f[3:], " ")})
	}
	if wantReset < 0 {
		t.Fatal("the plan holds no reset; pick a seed whose first reset is within the horizon")
	}
	var wantCorrupt []string
	wantDelays := 0
	for _, ev := range planned {
		switch {
		case ev.off >= wantReset:
		case strings.HasPrefix(ev.what, "corrupt"):
			wantCorrupt = append(wantCorrupt, fmt.Sprintf("@%d %s", ev.off, ev.what))
		case strings.HasPrefix(ev.what, "delay"):
			wantDelays++
		}
	}
	for _, size := range []int{1, 64, 1500, 32 << 10} {
		s := NewStream(7, spec, 0, C2S)
		var st StreamStats
		var corrupt []string
		var stall time.Duration
		reset := -1
		buf := make([]byte, size)
		for off := 0; off < planHorizon && reset < 0; {
			chunk := buf[:min(size, planHorizon-off)]
			clear(chunk)
			forward, rst, d := s.Process(chunk, &st)
			stall += d
			for i, b := range chunk[:forward] {
				if b != 0 {
					corrupt = append(corrupt, fmt.Sprintf("@%d corrupt mask=0x%02x", off+i, b))
				}
			}
			if off += forward; rst {
				reset = off
			}
		}
		if !slices.Equal(corrupt, wantCorrupt) || st.BytesCorrupted != uint64(len(wantCorrupt)) {
			t.Errorf("%d-byte reads: corrupted %v (counted %d), plan %v", size, corrupt, st.BytesCorrupted, wantCorrupt)
		}
		if stall != time.Duration(wantDelays)*spec.DelayFor.Duration() || st.DelaysInjected != uint64(wantDelays) {
			t.Errorf("%d-byte reads: stalled %v over %d delays, plan has %d delays", size, stall, st.DelaysInjected, wantDelays)
		}
		if reset != wantReset || st.BytesForwarded != uint64(wantReset) {
			t.Errorf("%d-byte reads: reset at %d after %d bytes forwarded, plan resets at %d", size, reset, st.BytesForwarded, wantReset)
		}
	}
}
