package core

import (
	"encoding/json"
	"testing"

	"accturbo/internal/eventsim"
)

func TestParseRanking(t *testing.T) {
	for r, names := range map[Ranking][]string{
		ByThroughput:         {"Th.", "th", "THROUGHPUT"},
		ByPacketRate:         {"N.P.", "np", "packet-rate"},
		ByThroughputOverSize: {"Th./Size", "throughput/size"},
		ByPacketRateOverSize: {"N.P./Size", "np/size"},
	} {
		for _, name := range names {
			got, err := ParseRanking(name)
			if err != nil || got != r {
				t.Errorf("ParseRanking(%q) = %v, %v; want %v", name, got, err, r)
			}
		}
		// Every String() output parses back to itself.
		if got, err := ParseRanking(r.String()); err != nil || got != r {
			t.Errorf("ParseRanking(%q) = %v, %v; want round-trip", r.String(), got, err)
		}
	}
	if _, err := ParseRanking("bogus"); err == nil {
		t.Error("ParseRanking accepted an unknown name")
	}
}

func TestRuntimePatchApply(t *testing.T) {
	base := DefaultConfig().Runtime()
	if got := (RuntimePatch{}).Apply(base); got != base {
		t.Fatalf("empty patch changed the config: %+v", got)
	}
	r := ByPacketRateOverSize
	poll := 42 * eventsim.Millisecond
	got := RuntimePatch{Ranking: &r, PollInterval: &poll}.Apply(base)
	if got.Ranking != r || got.PollInterval != poll {
		t.Fatalf("patched fields not applied: %+v", got)
	}
	if got.DeployDelay != base.DeployDelay || got.ReseedInterval != base.ReseedInterval {
		t.Fatalf("unpatched fields changed: %+v", got)
	}
}

// TestRuntimePatchJSON pins the admin-endpoint wire contract: field
// names and partial-patch semantics.
func TestRuntimePatchJSON(t *testing.T) {
	var p RuntimePatch
	if err := json.Unmarshal([]byte(`{"poll_interval_ns": 250000000}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.PollInterval == nil || *p.PollInterval != 250*eventsim.Millisecond {
		t.Fatalf("poll_interval_ns not decoded: %+v", p)
	}
	if p.Ranking != nil || p.DeployDelay != nil {
		t.Fatalf("absent fields decoded non-nil: %+v", p)
	}
}
