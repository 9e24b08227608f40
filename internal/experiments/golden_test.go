package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from this run's outputs")

// goldenSeeds are the two seeds every change is held to: 1 is the CLI's
// default, 7 the seed of the captures internal/manifest pins.
var goldenSeeds = []int64{1, 7}

const goldenPath = "testdata/golden.sha256"

// TestGoldenManifest pins the exact bytes of every experiment's quick-mode
// output, rendered and CSV, at both seeds, and of its full-fidelity
// output at seed 1 (the numbers EXPERIMENTS.md reports): a seed fixes
// every byte, so a change anywhere in the stack that perturbs a
// reproduced number — however plausible-looking — fails here, by name,
// instead of silently shifting it. It reads the runs the shape tests read
// (quickRun). The manifest is in sha256sum's format. Regenerate it only
// for an intended behavioural change, with
//
//	go test ./internal/experiments/ -run TestGoldenManifest -update
//
// and say which lines moved and why. The suite takes ~50 s, and far
// longer under the race detector, which adds nothing to a byte
// comparison.
func TestGoldenManifest(t *testing.T) {
	if testing.Short() || raceDetector() {
		t.Skip("the quick and full suites are skipped under -short and -race")
	}
	var got []string
	line := func(r *Result, name string) {
		got = append(got,
			fmt.Sprintf("%s  %s.txt", hashOf(r.Render()), name),
			fmt.Sprintf("%s  %s.csv", hashOf(r.CSV()), name))
	}
	for _, seed := range goldenSeeds {
		for _, e := range All() {
			line(quickRun(t, e.ID, seed), fmt.Sprintf("seed%d/%s", seed, e.ID))
		}
	}
	for _, e := range All() {
		line(fullRun(t, e.ID, 1), "full/seed1/"+e.ID)
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := goldenLines(t)
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, this run produced %d", goldenPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("drifted from %s:\n got %s\nwant %s", goldenPath, got[i], want[i])
		}
	}
	// The chaos experiment's faults follow its seed. An -update would
	// accept a Chaos that ignored it, so the two seeds' renders must
	// differ.
	if quickRun(t, "chaos", 1).Render() == quickRun(t, "chaos", 7).Render() {
		t.Error("chaos renders the same at seeds 1 and 7: its faults ignore the seed")
	}
}

// goldenLines is the manifest, one "sha256  seedN/id.ext" line each.
func goldenLines(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func hashOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
