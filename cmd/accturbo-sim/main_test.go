package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
)

// TestMain lets TestCheckRates run the real main — flag parsing and exit
// codes included — by re-executing the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("ACCTURBO_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckRates: the CLI hands -scenario (none for -pcap), -link and
// -duration to traffic.CheckRates before building a scenario, so a value
// that would panic or spin is a one-line usage error with exit 2. The
// full table of refused values is traffic's TestCheckRates. A defense
// the CLI does not know, or an ACC-Turbo cluster count its clusterer
// refuses, is a usage error too.
func TestCheckRates(t *testing.T) {
	for _, c := range []struct {
		args []string
		exit int
		want string // a substring of stdout+stderr
	}{
		{[]string{"-link", "NaN"}, 2, "-link"},
		{[]string{"-duration", "0"}, 2, "-duration"},
		{[]string{"-scenario", "background", "-duration", "1e300"}, 2, "-duration 1e+300: beyond"},
		{[]string{"-scenario", "morphing", "-link", "4e11"}, 2, "-link 4e+11: scenario morphing"},
		{[]string{"-scenario", "bogus"}, 2, `unknown scenario "bogus"`},
		{[]string{"-defense", "fifo", "-link", "1e6", "-duration", "1"}, 0, "scenario=pulsewave defense=fifo"},
		// -clusters is ACC-Turbo's alone: another defense runs whatever it says.
		{[]string{"-defense", "jaqen", "-clusters", "0", "-link", "1e6", "-duration", "1"}, 0, "defense=jaqen"},
		{[]string{"-defense", "accturbo", "-clusters", "0", "-link", "1e6", "-duration", "1"}, 2, "cluster: MaxClusters 0"},
		{[]string{"-defense", "bogus", "-duration", "1"}, 2, `unknown defense "bogus"`},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "ACCTURBO_SIM_MAIN=1")
		got, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != c.exit || !strings.Contains(string(got), c.want) {
			t.Errorf("%v: exit %d (%v), want %d with %q in:\n%s", c.args, code, err, c.exit, c.want, got)
		}
		if c.exit != 0 && strings.Count(strings.TrimSpace(string(got)), "\n") != 0 {
			t.Errorf("%v: a usage error should be one line, got:\n%s", c.args, got)
		}
	}
}

// captureImage is a nanosecond capture of n small UDP packets, one a
// millisecond from start, with the version nibble of each frame listed
// in v6 set to 6.
func captureImage(t *testing.T, start eventsim.Time, n int, v6 ...int) []byte {
	var img bytes.Buffer
	w, err := pcap.NewNanoWriter(&img)
	if err != nil {
		t.Fatal(err)
	}
	var size int
	for i := 0; i < n; i++ {
		p := packet.Packet{
			SrcIP: packet.V4(10, 0, 0, 1), DstIP: packet.V4(198, 18, 0, 1),
			Protocol: 17, SrcPort: 5000, DstPort: 53, TTL: 64, ID: uint16(i), Length: 100,
		}
		size = p.WireLen()
		if err := w.Write(start+eventsim.Time(i)*eventsim.Millisecond, &p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := img.Bytes()
	for _, i := range v6 {
		b[24+i*(16+size)+16] = 0x65
	}
	return b
}

// simulate runs the CLI on a capture written from img and returns its
// exit code, stdout and stderr.
func simulate(t *testing.T, name string, img []byte, args ...string) (int, string, string) {
	in := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(in, img, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], append([]string{"-pcap", in, "-defense", "fifo"}, args...)...)
	cmd.Env = append(os.Environ(), "ACCTURBO_SIM_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.Run()
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestPcapReadError: a capture that ends inside a record is a read error
// and exits 1, not a run over the packets read before it; the whole
// capture runs and exits 0.
func TestPcapReadError(t *testing.T) {
	img := captureImage(t, 0, 3)
	for _, c := range []struct {
		name string
		img  []byte
		exit int
		want string // a substring of stdout+stderr
	}{
		{"whole.pcap", img, 0, "defense=fifo"},
		{"truncated.pcap", img[:len(img)-10], 1, "truncated record body"},
	} {
		code, stdout, stderr := simulate(t, c.name, c.img, "-duration", "1")
		if code != c.exit || !strings.Contains(stdout+stderr, c.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s%s", c.name, code, c.exit, c.want, stdout, stderr)
		}
	}
}

// TestPcapSkipsMalformed: a frame that is not IPv4 is skipped and
// counted, as in accturbo-defend, not a read error: [valid, IPv6, valid]
// replays two 100-byte packets in second 0, says so once on stderr,
// names the capture in the summary and exits 0.
func TestPcapSkipsMalformed(t *testing.T) {
	code, stdout, stderr := simulate(t, "mixed.pcap", captureImage(t, 0, 3, 1), "-duration", "1", "-csv")
	if code != 0 || !strings.Contains(stdout, "\n0,0.0016,0.0000,") || !strings.Contains(stdout, "capture=") ||
		!strings.HasPrefix(stderr, "skipped 1 malformed frames in ") || strings.Count(stderr, "\n") != 1 {
		t.Errorf("exit %d, want 0 with 1600 benign bits in second 0 and one skip line:\n%s%s", code, stdout, stderr)
	}
}

// TestPcapEpochCapture: a capture stamped with wall-clock time, as
// tcpdump writes it (seconds since 1970), replays like its zero-based
// twin: the same series, apart from the summary line naming the file.
func TestPcapEpochCapture(t *testing.T) {
	const epoch = 1_704_067_200 * eventsim.Second // 2024-01-01 UTC
	_, zero, _ := simulate(t, "zero.pcap", captureImage(t, 300*eventsim.Millisecond, 2000), "-duration", "3", "-csv")
	_, wall, _ := simulate(t, "wall.pcap", captureImage(t, epoch+300*eventsim.Millisecond, 2000), "-duration", "3", "-csv")
	series := func(out string) string { return out[:strings.Index(out, "capture=")] }
	if !strings.Contains(zero, "capture=") || !strings.Contains(wall, "capture=") || series(zero) != series(wall) {
		t.Errorf("the epoch-stamped capture replays\n%s\nits zero-based twin\n%s", wall, zero)
	}
}
