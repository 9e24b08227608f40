// Package manifest_test is the command-line half of the golden manifest
// (the experiments' half is internal/experiments/testdata/golden.sha256).
// TestCLIManifest builds cmd/trafficgen, cmd/accturbo-defend and
// cmd/accturbo-sim, runs the recipes below in a scratch directory, and holds each pinned output to
// its sha256 in testdata/golden.sha256: a seed fixes every byte the tools
// write, so a change that moves one fails here, by file name.
// The package has no non-test code, so it adds nothing to the line count
// scripts/loc.sh guards.
package manifest_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from this run's outputs")

// plan is the chaos relay's fault schedule with every fault kind on.
const plan = "-chaos-plan 4 -chaos-corrupt-every 4096 -chaos-reset-every 32768 -chaos-delay-every 8192 -chaos-delay-for 5ms"

// recipes run in order in one directory. Every file name is relative, so
// no temporary path reaches an output (the reports print their -in). A
// recipe's stdout goes to its out file when it names one.
var recipes = []struct{ out, cmd string }{
	{"", "trafficgen -scenario pulsewave -duration 20 -seed 7 -out pulse.pcap"},
	{"", "trafficgen -scenario cicddos -duration 8 -seed 7 -out vict.pcap"},
	{"victims.txt", "accturbo-defend -in vict.pcap -victims 8 -victim-window 500"},
	{"snapshot.txt", "accturbo-defend -in pulse.pcap -reseed 0 -snapshot-out a.snap"},
	{"", "accturbo-defend -restore a.snap -snapshot-out b.snap"},
	{"", "accturbo-defend -in pulse.pcap -verdicts verdicts.csv"},
	{"plan.txt", "accturbo-defend " + plan + " -chaos-seed 7"},
	{"plan8.txt", "accturbo-defend " + plan + " -chaos-seed 8"},
	{"fleet.txt", "accturbo-defend -in pulse.pcap -fleet-nodes 3"},
	{"fleet_down.txt", "accturbo-defend -in pulse.pcap -fleet-nodes 3 -coordinator=false"},
	{"sim_fifo.txt", "accturbo-sim -defense fifo"},
	{"sim_red.txt", "accturbo-sim -defense red"},
	{"sim_acc.txt", "accturbo-sim -defense acc"},
	{"sim_jaqen.txt", "accturbo-sim -defense jaqen"},
	{"sim_accturbo.txt", "accturbo-sim -defense accturbo"},
	{"sim_pifo.txt", "accturbo-sim -defense pifo"},
	{"sim_pcap.txt", "accturbo-sim -pcap pulse.pcap -defense accturbo"},
}

// pinned are the outputs the manifest holds, in its line order. Nothing
// reads back the TCP/UDP checksums packet.MarshalTo writes into the
// captures, so a wrong one would show nowhere else. The sim_ lines are
// the simulator's report under each of its defenses on the default
// scenario, and under ACC-Turbo on the capture.
var pinned = []string{"pulse.pcap", "vict.pcap", "victims.txt", "a.snap", "snapshot.txt", "verdicts.csv", "plan.txt",
	"fleet.txt", "fleet_down.txt",
	"sim_fifo.txt", "sim_red.txt", "sim_acc.txt", "sim_jaqen.txt", "sim_accturbo.txt", "sim_pifo.txt", "sim_pcap.txt"}

// TestCLIManifest also checks the properties a hash cannot: a restored
// defense re-saves the snapshot it was restored from, the chaos plan
// follows its seed, and the in-process fleet ranks from the coordinator
// on every node while the link is up and from its local fallback on
// every node while it is partitioned. The manifest is in sha256sum's format, so
// `sha256sum -c` checks it in a directory where the recipes ran.
// Regenerate it only for an intended change, with
//
//	go test ./internal/manifest/ -run TestCLIManifest -update
//
// and say which lines moved and why.
func TestCLIManifest(t *testing.T) {
	bin, work := t.TempDir(), t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/trafficgen", "./cmd/accturbo-defend", "./cmd/accturbo-sim")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, r := range recipes {
		args := strings.Fields(r.cmd)
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		cmd.Dir = work
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", r.cmd, err, stderr.Bytes())
		}
		if r.out == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(work, r.out), stdout, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(work, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(read("b.snap"), read("a.snap")) {
		t.Error("restore and re-save: b.snap differs from a.snap")
	}
	// A plan's first line echoes the spec, seed included; the schedule
	// after it is what must follow the seed.
	schedule := func(name string) []byte {
		_, s, _ := bytes.Cut(read(name), []byte("\n"))
		return s
	}
	if bytes.Equal(schedule("plan8.txt"), schedule("plan.txt")) {
		t.Error("the chaos plan ignores its seed: seeds 7 and 8 render the same schedule")
	}

	t.Run("fleet", func(t *testing.T) {
		report := string(read("fleet.txt"))
		for _, node := range nodeLines(t, report) {
			if !strings.Contains(node, "ranking source fleet ") || strings.Contains(node, "degraded=true") {
				t.Errorf("a node off the fleet ranking with the coordinator up: %q", node)
			}
		}
		if !strings.Contains(report, "pkts this window") || strings.Contains(report, "no merged view") {
			t.Errorf("no merged view with the coordinator up:\n%s", report)
		}
	})
	t.Run("fleet_down", func(t *testing.T) {
		report := string(read("fleet_down.txt"))
		for _, node := range nodeLines(t, report) {
			if !strings.Contains(node, "ranking source fleet-fallback:local") {
				t.Errorf("a node off its local fallback with the link partitioned: %q", node)
			}
		}
		if !strings.Contains(report, "\ncoordinator: 0 nodes") {
			t.Errorf("the coordinator heard from a node across the partition:\n%s", report)
		}
	})

	var got []string
	for _, name := range pinned {
		got = append(got, fmt.Sprintf("%x  %s", sha256.Sum256(read(name)), name))
	}
	const path = "testdata/golden.sha256"
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

// nodeLines returns a -fleet-nodes 3 report's per-node lines.
func nodeLines(t *testing.T, report string) []string {
	t.Helper()
	var nodes []string
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "  node ") {
			nodes = append(nodes, line)
		}
	}
	if len(nodes) != 3 {
		t.Fatalf("%d node lines, want 3:\n%s", len(nodes), report)
	}
	return nodes
}
