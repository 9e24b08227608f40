package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets TestCheckRates run the real main — flag parsing and exit
// codes included — by re-executing the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("TRAFFICGEN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCheckRates: the CLI hands -scenario, -link and -duration to
// traffic.CheckRates before building a generator, so a value that would
// panic or spin is a one-line usage error with exit 2. The full table of
// refused values is traffic's TestCheckRates.
func TestCheckRates(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.pcap")
	for _, c := range []struct {
		args []string
		exit int
		want string // a substring of stdout+stderr
	}{
		{[]string{"-link", "NaN"}, 2, "-link"},
		{[]string{"-duration", "0"}, 2, "-duration"},
		{[]string{"-scenario", "background", "-duration", "1e10", "-limit", "10"}, 2, "-duration 1e+10: beyond"},
		{[]string{"-scenario", "morphing", "-link", "4e11"}, 2, "-link 4e+11: scenario morphing"},
		{[]string{"-scenario", "pulsewave", "-link", "4e11", "-limit", "10"}, 0, "wrote 10 packets"},
		{[]string{"-link", "1e6", "-duration", "0.5", "-limit", "10"}, 0, "wrote 10 packets"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-out", out}, c.args...)...)
		cmd.Env = append(os.Environ(), "TRAFFICGEN_MAIN=1")
		got, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != c.exit || !strings.Contains(string(got), c.want) {
			t.Errorf("%v: exit %d (%v), want %d with %q in:\n%s", c.args, code, err, c.exit, c.want, got)
		}
		if c.exit != 0 && strings.Count(strings.TrimSpace(string(got)), "\n") != 0 {
			t.Errorf("%v: a usage error should be one line, got:\n%s", c.args, got)
		}
	}
}
