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

// goldenSeeds are the two seeds every PR compares: 1 is the CLI's default,
// 7 the one CI's determinism gates ran.
var goldenSeeds = []int64{1, 7}

// TestGoldenManifest pins the exact bytes of every experiment's quick-mode
// output, rendered and CSV, at both seeds: a seed fixes every byte, so a
// change anywhere in the stack that perturbs a reproduced number — however
// plausible-looking — fails here, by name, instead of silently shifting
// it. The manifest is in sha256sum's format. Regenerate it only for an
// intended behavioural change, with
//
//	go test ./internal/experiments/ -run TestGoldenManifest -update
//
// and say which lines moved and why. The suite takes ~25 s, and minutes
// under the race detector, which adds nothing to a byte comparison.
func TestGoldenManifest(t *testing.T) {
	if testing.Short() || raceDetector() {
		t.Skip("the two-seed quick suite is skipped under -short and -race")
	}
	const path = "testdata/golden.sha256"
	var got []string
	for _, seed := range goldenSeeds {
		for _, e := range All() {
			r := e.Run(Options{Quick: true, Seed: seed})
			got = append(got,
				fmt.Sprintf("%s  seed%d/%s.txt", hashOf(r.Render()), seed, e.ID),
				fmt.Sprintf("%s  seed%d/%s.csv", hashOf(r.CSV()), seed, e.ID))
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, this run produced %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("drifted from %s:\n got %s\nwant %s", path, got[i], want[i])
		}
	}
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
