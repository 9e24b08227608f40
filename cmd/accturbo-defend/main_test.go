package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accturbo"
	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
	"accturbo/internal/pcap"
)

// TestMain lets TestFlagEdges run the real main — flag parsing, usage
// errors and exit codes included — by re-executing the test binary.
func TestMain(m *testing.M) {
	if os.Getenv("ACCTURBO_DEFEND_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagEdges: -fleet-nodes 1 is a fleet of one and a negative count a
// usage error, not the single pipeline under another name; the
// real-time report counts the ingest goroutines that ran; and a fault
// spec this CLI cannot inject is refused, not silently ignored.
func TestFlagEdges(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "edge.pcap")
	f, err := os.Create(capture)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcap.NewNanoWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		p := accturbo.Packet{
			SrcIP: accturbo.V4(10, 0, byte(i>>8), byte(i)), DstIP: accturbo.V4(198, 18, 0, 1),
			Protocol: 17, SrcPort: 5000, DstPort: 53, TTL: 64, ID: uint16(i), Length: 100,
		}
		if err := w.Write(eventsim.Time(i)*eventsim.Millisecond, &p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		exit int
		want string // a substring of stdout+stderr
	}{
		{[]string{"-fleet-nodes", "1"}, 0, "fleet mode: 1 nodes"},
		{[]string{"-fleet-nodes", "-3"}, 2, "-fleet-nodes must not be negative"},
		{[]string{"-fleet-nodes", "0"}, 0, "final aggregates (operator view)"},
		{[]string{"-realtime", "-ingest", "0"}, 0, "1 shards, 1 ingest goroutines"},
		{[]string{"-fault-spec", "flap:first=1s,down=1s"}, 2, "flap clauses need a simulated link"},
		{[]string{"-fault-spec", "sinkfail:p=1"}, 2, `unknown clause kind "sinkfail"`},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-in", capture}, c.args...)...)
		cmd.Env = append(os.Environ(), "ACCTURBO_DEFEND_MAIN=1")
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != c.exit || !strings.Contains(string(out), c.want) {
			t.Errorf("%v: exit %d (%v), want %d with %q in:\n%s", c.args, code, err, c.exit, c.want, out)
		}
		if c.exit != 0 && strings.Count(strings.TrimSpace(string(out)), "\n") != 0 {
			t.Errorf("%v: a usage error should be one line, got:\n%s", c.args, out)
		}
	}
}

// TestCaptureStreamFaults: the one capture chokepoint applies the
// seeded packet faults and accounts for every one of them — drops
// vanish, a duplicate follows its original as a distinct *Packet with
// the same (possibly corrupted) header, corruption changes header fields
// in place, and the tap sees exactly what next yields.
func TestCaptureStreamFaults(t *testing.T) {
	const n = 4000
	var buf bytes.Buffer
	w, err := pcap.NewNanoWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := func(i int) accturbo.Packet {
		return accturbo.Packet{
			SrcIP: accturbo.V4(10, 0, byte(i>>8), byte(i)), DstIP: accturbo.V4(198, 18, 0, 1),
			Protocol: 17, SrcPort: 5000, DstPort: 53, TTL: 64, ID: uint16(i), Length: 100,
		}
	}
	for i := 0; i < n; i++ {
		p := orig(i)
		if err := w.Write(eventsim.Time(i)*eventsim.Microsecond, &p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := faults.ParseSpec("drop:p=0.1;dup:p=0.1;corrupt:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(7, spec)
	tapped := 0
	src := &captureStream{r: r, injector: inj, tap: func(capturedPacket) { tapped++ }}

	seen := map[time.Duration]*accturbo.Packet{}
	yielded, dups, changed := 0, 0, 0
	for c, ok := src.next(); ok; c, ok = src.next() {
		yielded++
		if first, dup := seen[c.at]; dup {
			dups++
			if c.pkt == first {
				t.Fatalf("duplicate at %v is the same *Packet as its original", c.at)
			}
			if *c.pkt != *first {
				t.Fatalf("duplicate at %v differs from its original: %+v vs %+v", c.at, c.pkt, first)
			}
			continue
		}
		seen[c.at] = c.pkt
		want := orig(int(c.at / time.Microsecond))
		got := *c.pkt
		if got.TTL != want.TTL || got.ID != want.ID || got.SrcPort != want.SrcPort ||
			got.DstPort != want.DstPort || got.FragOffset != want.FragOffset {
			changed++
		}
	}
	if got := uint64(n - len(seen)); got != inj.PacketsDropped.Value() || got == 0 {
		t.Fatalf("%d packets vanished, injector counted %d drops", got, inj.PacketsDropped.Value())
	}
	if uint64(dups) != inj.PacketsDuplicated.Value() || dups == 0 {
		t.Fatalf("%d duplicates yielded, injector counted %d", dups, inj.PacketsDuplicated.Value())
	}
	// A corruption XORs a random mask into one field; the rare all-zero
	// mask changes nothing, so the counter bounds the visible changes.
	if counted := inj.PacketsCorrupted.Value(); changed == 0 || uint64(changed) > counted || uint64(changed) < counted*9/10 {
		t.Fatalf("%d originals changed, injector counted %d corruptions", changed, counted)
	}
	if tapped != yielded || yielded != len(seen)+dups {
		t.Fatalf("tap saw %d of %d yielded packets (%d originals + %d duplicates)", tapped, yielded, len(seen), dups)
	}
	if _, ok := (&captureStream{}).next(); ok {
		t.Fatal("a stream without a capture yielded a packet")
	}
}

func TestVictimDetectionThroughFacade(t *testing.T) {
	cfg := accturbo.DefaultVictimConfig()
	cfg.TopK = 4
	vd, err := accturbo.NewVictimDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := accturbo.V4(203, 0, 113, 9)
	p := &accturbo.Packet{SrcIP: accturbo.V4(10, 0, 0, 1), DstIP: victim, Length: 1200}
	for i := 0; i < 1000; i++ {
		vd.Observe(accturbo.DstKey(p), uint64(p.Length))
	}
	bg := &accturbo.Packet{SrcIP: accturbo.V4(10, 0, 0, 2), Length: 400}
	for i := 0; i < 500; i++ {
		bg.DstIP = accturbo.V4(198, 51, byte(i>>8), byte(i))
		vd.Observe(accturbo.DstKey(bg), uint64(bg.Length))
	}
	vs := vd.Advance()
	if len(vs) != 1 || vs[0].Key != accturbo.DstKey(p) {
		t.Fatalf("victims = %+v, want exactly %s", vs, victim)
	}
	if vs[0].Share < 0.5 {
		t.Fatalf("victim share = %v, want > 0.5", vs[0].Share)
	}
}
