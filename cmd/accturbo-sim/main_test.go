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

// TestCheckRates: the CLI hands -link and -duration to
// traffic.CheckRates before building a scenario, so a value that would
// panic or spin is a one-line usage error with exit 2. The full table of
// refused values is traffic's TestCheckRates.
func TestCheckRates(t *testing.T) {
	for _, c := range []struct {
		args []string
		exit int
		want string // a substring of stdout+stderr
	}{
		{[]string{"-link", "NaN"}, 2, "-link"},
		{[]string{"-duration", "0"}, 2, "-duration"},
		{[]string{"-defense", "fifo", "-link", "1e6", "-duration", "1"}, 0, "scenario=pulsewave defense=fifo"},
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

// TestPcapReadError: a capture that ends inside a record is a read error
// and exits 1, not a run over the packets read before it; the whole
// capture runs and exits 0.
func TestPcapReadError(t *testing.T) {
	var img bytes.Buffer
	w, err := pcap.NewNanoWriter(&img)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p := packet.Packet{
			SrcIP: packet.V4(10, 0, 0, 1), DstIP: packet.V4(198, 18, 0, 1),
			Protocol: 17, SrcPort: 5000, DstPort: 53, TTL: 64, ID: uint16(i), Length: 100,
		}
		if err := w.Write(eventsim.Time(i)*eventsim.Millisecond, &p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	whole, truncated := filepath.Join(dir, "whole.pcap"), filepath.Join(dir, "truncated.pcap")
	if err := os.WriteFile(whole, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, img.Bytes()[:img.Len()-10], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		in   string
		exit int
		want string // a substring of stdout+stderr
	}{
		{whole, 0, "defense=fifo"},
		{truncated, 1, "reading record body"},
	} {
		cmd := exec.Command(os.Args[0], "-pcap", c.in, "-defense", "fifo", "-duration", "1")
		cmd.Env = append(os.Environ(), "ACCTURBO_SIM_MAIN=1")
		got, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != c.exit || !strings.Contains(string(got), c.want) {
			t.Errorf("%s: exit %d (%v), want %d with %q in:\n%s", filepath.Base(c.in), code, err, c.exit, c.want, got)
		}
	}
}
