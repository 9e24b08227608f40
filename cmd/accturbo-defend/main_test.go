package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
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
	"accturbo/internal/traffic"
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
// usage error, not the single pipeline under another name, and a fleet,
// which replays on the capture's timeline, refuses -realtime; the
// real-time report counts the ingest goroutines that ran; a fault
// spec this CLI cannot inject is refused, not silently ignored; and a
// configuration with no snapshot refuses -snapshot-out before it replays
// the capture or creates the file. A control-plane stall reads the same
// in the chaos line of the single pipeline and of a fleet, whose nodes
// each print their watchdog's resilience line.
func TestFlagEdges(t *testing.T) {
	capture := udpCapture(t, "edge.pcap", 0)
	snap := filepath.Join(t.TempDir(), "x.snap")
	stall := func(args ...string) []string {
		return append(args, "-fault-spec", "stall:at=500ms,for=1s", "-chaos-seed", "7", "-fail-open-after", "300ms")
	}
	for _, c := range []struct {
		args []string
		exit int
		want string // a substring of stdout+stderr
	}{
		{[]string{"-fleet-nodes", "1"}, 0, "fleet mode: 1 nodes"},
		{[]string{"-fleet-nodes", "-3"}, 2, "-fleet-nodes must not be negative"},
		{[]string{"-fleet-nodes", "0"}, 0, "final aggregates (operator view)"},
		{[]string{"-fleet-nodes", "2", "-realtime"}, 2, "-fleet-nodes cannot be combined with -realtime"},
		{[]string{"-realtime", "-ingest", "0"}, 0, "1 shards, 1 ingest goroutines"},
		{[]string{"-fault-spec", "flap:first=1s,down=1s"}, 2, "flap clauses need a simulated link"},
		{[]string{"-fault-spec", "sinkfail:p=1"}, 2, `unknown clause kind "sinkfail"`},
		{[]string{"-victims", "1000000000"}, 2, "victim: TopK 1000000000 outside [1, 4096]"},
		{[]string{"-clusters", "100", "-snapshot-out", snap}, 2, "-snapshot-out and -restore need the deployed clustering configuration"},
		{stall("-fleet-nodes", "3"), 0, "0 corrupted, 15 polls suppressed"},
		{stall("-fleet-nodes", "3"), 0, "\n    resilience: 1 fail-open engagements"},
		{stall(), 0, "0 corrupted, 5 polls suppressed"},
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
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("a refused -snapshot-out left %s behind (%v)", snap, err)
	}
}

// TestFleetRunForHoldsHealth: -run-for keeps the in-process fleet's
// /health up after its report, for as long as it says.
func TestFleetRunForHoldsHealth(t *testing.T) {
	const hold = time.Second
	cmd := exec.Command(os.Args[0], "-in", udpCapture(t, "hold.pcap", 0), "-fleet-nodes", "3",
		"-metrics-addr", "127.0.0.1:0", "-run-for", hold.String())
	cmd.Env = append(os.Environ(), "ACCTURBO_DEFEND_MAIN=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var addr string
	for sc := bufio.NewScanner(stdout); sc.Scan() && !strings.HasPrefix(sc.Text(), "fleet-merged aggregates"); {
		if a, ok := strings.CutPrefix(sc.Text(), "serving fleet health on http://"); ok {
			addr = strings.TrimSuffix(a, "/health")
		}
	}
	if addr == "" {
		t.Fatal("no health banner before the report")
	}
	resp, err := http.Get("http://" + addr + "/health")
	if err != nil {
		t.Fatalf("/health after the report: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"nodes"`) {
		t.Errorf("/health after the report: %d %s", resp.StatusCode, body)
	}
	io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	if held := time.Since(start); held < hold {
		t.Errorf("the fleet exited after %v, inside its %v hold", held, hold)
	}
}

// TestRestoreWithoutCapture: a run that only restores and re-saves a
// snapshot reads no capture, so its report names none.
func TestRestoreWithoutCapture(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	for _, args := range [][]string{
		{"-in", udpCapture(t, "save.pcap", 0), "-snapshot-out", a},
		{"-restore", a, "-snapshot-out", b},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ACCTURBO_DEFEND_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		if named := strings.Contains(string(out), "packets from"); named != (args[0] == "-in") {
			t.Errorf("%v: a line naming the capture is printed: %v, want %v, in:\n%s", args, named, args[0] == "-in", out)
		}
	}
}

// TestPipelineSurfaceLiveOnlyRealTime: a deterministic pipeline's admin
// surface serves /health and /metrics but neither /config nor /snapshot,
// whose handlers would race its single feeder (SaveState reading the
// clusterer Process writes, Reconfigure rescheduling the event engine);
// a real-time pipeline's serves both, and each banner says what it
// mounts.
func TestPipelineSurfaceLiveOnlyRealTime(t *testing.T) {
	for _, realtime := range []bool{false, true} {
		newDefense := accturbo.NewDefense
		if realtime {
			newDefense = accturbo.NewRealTimeDefense
		}
		d, err := newDefense(accturbo.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s, banner := pipelineSurface(d, realtime)
		h := s.Handler()
		for _, c := range []struct{ method, path string }{
			{http.MethodGet, "/health"}, {http.MethodGet, "/metrics"},
			{http.MethodGet, "/config"}, {http.MethodPut, "/config"}, {http.MethodPost, "/snapshot"},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader("{}")))
			live := c.path == "/config" || c.path == "/snapshot"
			if want := live && !realtime; (rec.Code == http.StatusNotFound) != want {
				t.Errorf("realtime=%v: %s %s answered %d, want 404: %v", realtime, c.method, c.path, rec.Code, want)
			}
		}
		if strings.Contains(banner, "/config") != realtime || strings.Contains(banner, "/snapshot") != realtime {
			t.Errorf("realtime=%v: banner %q", realtime, banner)
		}
		d.Close()
	}
}

// udpCapture writes 2000 small UDP packets, one a millisecond from
// start, as a nanosecond capture named name and returns its path.
func udpCapture(t *testing.T, name string, start eventsim.Time) string {
	capture := filepath.Join(t.TempDir(), name)
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
			SrcIP: accturbo.V4(10, 0, byte(i>>8), byte(i)), DstIP: accturbo.V4(198, 18, 0, byte(i%3)),
			Protocol: 17, SrcPort: 5000, DstPort: 53, TTL: 64, ID: uint16(i), Length: 100,
		}
		if err := w.Write(start+eventsim.Time(i)*eventsim.Millisecond, &p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return capture
}

// TestEpochCapture: a capture stamped with wall-clock time, as tcpdump
// writes it (seconds since 1970), reports exactly what its zero-based
// twin does — deterministic replay and the victim windows run on
// capture time counted from the first record's second — apart from the
// lines that name the file.
func TestEpochCapture(t *testing.T) {
	const epoch = 1_704_067_200 * eventsim.Second // 2024-01-01 UTC
	zero := udpCapture(t, "zero.pcap", 300*eventsim.Millisecond)
	wall := udpCapture(t, "wall.pcap", epoch+300*eventsim.Millisecond)
	run := func(capture string, args ...string) string {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-in", capture}, args...)...)
		cmd.Env = append(os.Environ(), "ACCTURBO_DEFEND_MAIN=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v", filepath.Base(capture), args, err)
		}
		var kept []string
		for _, line := range strings.Split(string(out), "\n") {
			if !strings.Contains(line, capture) {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	for _, args := range [][]string{nil, {"-victims", "4", "-victim-window", "200"}} {
		if a, b := run(zero, args...), run(wall, args...); a != b {
			t.Errorf("%v: the epoch-stamped capture reports\n%s\nits zero-based twin\n%s", args, b, a)
		}
	}
}

// handCapture writes a nanosecond raw-IP capture holding frames as they
// are, one a millisecond, then cuts trunc bytes off its end, and returns
// its path.
func handCapture(t *testing.T, trunc int, frames ...[]byte) string {
	var img bytes.Buffer
	w, err := pcap.NewNanoWriter(&img)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[4:], uint32(i)*1e6)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(f)))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(len(f)))
		img.Write(hdr[:])
		img.Write(f)
	}
	path := filepath.Join(t.TempDir(), "hand.pcap")
	if err := os.WriteFile(path, img.Bytes()[:img.Len()-trunc], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// udpFrame is the wire image of a small valid UDP packet.
func udpFrame(t *testing.T, id uint16) []byte {
	p := accturbo.Packet{
		SrcIP: accturbo.V4(10, 0, 0, 1), DstIP: accturbo.V4(198, 18, 0, 1),
		Protocol: 17, SrcPort: 5000, DstPort: 53, TTL: 64, ID: id, Length: 100,
	}
	b := make([]byte, p.WireLen())
	if err := p.MarshalTo(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMalformedCapture: every capture-streaming mode skips and counts a
// frame that is not IPv4, as -replay does, and reports the count once on
// stderr; a truncated record is a read error and exits 1 instead of
// ending the report early.
func TestMalformedCapture(t *testing.T) {
	v6 := udpFrame(t, 2)
	v6[0] = 0x60 | v6[0]&0x0f
	mixed := handCapture(t, 0, udpFrame(t, 1), v6, udpFrame(t, 3))
	truncated := handCapture(t, 10, udpFrame(t, 1), udpFrame(t, 2))
	for _, c := range []struct {
		args   []string
		exit   int
		stdout string
		stderr string
	}{
		{[]string{"-in", mixed}, 0, "processed 2 packets", "skipped 1 malformed frames"},
		{[]string{"-in", mixed, "-realtime"}, 0, "processed 2 packets", "skipped 1 malformed frames"},
		{[]string{"-in", mixed, "-fleet-nodes", "1"}, 0, "1 nodes, 2 packets", "skipped 1 malformed frames"},
		{[]string{"-in", truncated}, 1, "", "truncated record body"},
		{[]string{"-in", truncated, "-fleet-nodes", "1"}, 1, "", "truncated record body"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "ACCTURBO_DEFEND_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := cmd.ProcessState.ExitCode()
		if code != c.exit || !strings.Contains(stdout.String(), c.stdout) || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%v: exit %d (%v), want %d with %q on stdout and %q on stderr:\n%s\n%s",
				c.args, code, err, c.exit, c.stdout, c.stderr, stdout.String(), stderr.String())
		}
		if n := strings.Count(stderr.String(), "\n"); n != 1 {
			t.Errorf("%v: stderr has %d lines, want one:\n%s", c.args, n, stderr.String())
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
	r, err := pcap.NewMappedReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := faults.ParseSpec("drop:p=0.1;dup:p=0.1;corrupt:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(7, spec)
	tapped := 0
	src := &captureStream{capture: traffic.NewPcapSource(r), injector: inj, tap: func(traffic.TimedPacket) { tapped++ }}

	seen := map[eventsim.Time]*accturbo.Packet{}
	yielded, dups, changed := 0, 0, 0
	for c, ok := src.next(); ok; c, ok = src.next() {
		yielded++
		if first, dup := seen[c.At]; dup {
			dups++
			if c.Pkt == first {
				t.Fatalf("duplicate at %v is the same *Packet as its original", c.At)
			}
			if *c.Pkt != *first {
				t.Fatalf("duplicate at %v differs from its original: %+v vs %+v", c.At, c.Pkt, first)
			}
			continue
		}
		seen[c.At] = c.Pkt
		want := orig(int(c.At / eventsim.Microsecond))
		got := *c.Pkt
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
