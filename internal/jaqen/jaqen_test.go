package jaqen

import (
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

func attackSpec() traffic.FlowSpec {
	return traffic.FlowSpec{
		SrcIP: packet.V4Addr{9, 9, 9, 9}, DstIP: packet.V4Addr{10, 0, 5, 1},
		Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80, TTL: 64, Size: 500,
		Label: packet.Malicious, Vector: "UDP", FlowID: 5,
	}
}

func benignSpec(i byte) traffic.FlowSpec {
	return traffic.FlowSpec{
		SrcIP: packet.V4Addr{1, 2, 3, i}, DstIP: packet.V4Addr{10, 0, 1, i},
		Protocol: packet.ProtoUDP, SrcPort: 5000, DstPort: 443, TTL: 64, Size: 500,
		Label: packet.Benign, FlowID: uint32(i),
	}
}

// run replays a scenario through a Jaqen-protected port.
func run(tb testing.TB, cfg Config, src traffic.Source, until eventsim.Time) (*netsim.Recorder, *Jaqen) {
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	port := netsim.NewPort(eng, queue.NewFIFO(125_000), 10e6, rec)
	j := attach(tb, eng, port, cfg)
	netsim.Replay(eng, src, port)
	eng.RunUntil(until)
	return rec, j
}

// attach is Attach for a configuration the test expects to be valid.
func attach(tb testing.TB, eng *eventsim.Engine, port *netsim.Port, cfg Config) *Jaqen {
	tb.Helper()
	j, err := Attach(eng, port, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return j
}

// conserved checks Jaqen's own accounting against the port's: every
// arrival was admitted or dropped by a rule, and Jaqen's drops are
// exactly the port's policer drops (Jaqen is its only ingress stage).
func conserved(t *testing.T, rec *netsim.Recorder, j *Jaqen) {
	t.Helper()
	dropped := j.ruleDrops
	if arrived := rec.ArrivedBenign() + rec.ArrivedMalicious(); j.admitted+dropped != arrived {
		t.Errorf("admitted %d + dropped %d != arrived %d", j.admitted, dropped, arrived)
	}
	if got := rec.DroppedFor(queue.DropPolicer); got != dropped {
		t.Errorf("port counts %d policer drops, Jaqen %d", got, dropped)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.Threshold = 0 },
		func(c *Config) { c.Window = 0 },
	}
	for i, m := range bad {
		cfg := DefaultConfig()
		m(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d should fail", i)
		}
		eng := eventsim.New()
		port := netsim.NewPort(eng, queue.NewFIFO(125_000), 10e6, nil)
		if j, err := Attach(eng, port, cfg); err == nil || j != nil {
			t.Errorf("mutation %d: Attach = (%v, %v), want only an error", i, j, err)
		}
		if eng.Pending() != 0 {
			t.Errorf("mutation %d: Attach scheduled %d events before refusing", i, eng.Pending())
		}
	}
}

func TestKeyString(t *testing.T) {
	if FiveTuple.String() != "5tuple" || SrcIP.String() != "srcip" {
		t.Fatal("key names wrong")
	}
}

func TestDetectsSingleFlowFlood(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 1000
	cfg.Window = eventsim.Second

	// 40 Mbps attack = 10k pps at 500 B; threshold 1000/window.
	src := traffic.Merge(
		traffic.NewCBR(0, 20*eventsim.Second, 4e6, benignSpec(1).Factory(1)),
		traffic.NewCBR(2*eventsim.Second, 20*eventsim.Second, 40e6, attackSpec().Factory(2)),
	)
	rec, j := run(t, cfg, src, 25*eventsim.Second)
	if j.FirstMitigation < 0 {
		t.Fatal("attack never mitigated")
	}
	// Two consecutive windows after attack start (2 s): mitigation at
	// ~4 s, certainly within 6 s.
	if j.FirstMitigation < 3*eventsim.Second || j.FirstMitigation > 7*eventsim.Second {
		t.Fatalf("mitigation at %v, want ~4s", j.FirstMitigation)
	}
	if len(j.rules) == 0 {
		t.Fatal("no rules installed")
	}
	// The attack shares one 5-tuple, so benign traffic survives.
	if rec.BenignDropPercent() > 10 {
		t.Fatalf("benign drops %v%% despite matching signature", rec.BenignDropPercent())
	}
	if rec.MaliciousDropPercent() < 50 {
		t.Fatalf("attack only dropped %v%%", rec.MaliciousDropPercent())
	}
	if j.ruleDrops == 0 || j.rulesInstalled == 0 {
		t.Fatalf("%d rule drops, %d rules installed: want both", j.ruleDrops, j.rulesInstalled)
	}
	conserved(t, rec, j)
}

func TestFiveTupleSketchMissesSpoofedSources(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 1000
	cfg.Window = eventsim.Second

	spoofed := attackSpec()
	spoofed.SrcHostBits = 32
	spoofed.RandomSrcPort = true
	src := traffic.Merge(
		traffic.NewCBR(0, 10*eventsim.Second, 4e6, benignSpec(1).Factory(1)),
		traffic.NewCBR(eventsim.Second, 10*eventsim.Second, 40e6, spoofed.Factory(2)),
	)
	rec, j := run(t, cfg, src, 12*eventsim.Second)
	// Every packet has a unique 5-tuple: no key crosses the threshold.
	if j.FirstMitigation >= 0 {
		t.Fatalf("spoofed flood should evade the 5-tuple signature, mitigated at %v", j.FirstMitigation)
	}
	// And benign traffic suffers (FIFO-like behaviour).
	if rec.BenignDropPercent() < 30 {
		t.Fatalf("benign drops %v%%, expected heavy loss without mitigation", rec.BenignDropPercent())
	}
}

func TestSrcIPSketchCatchesCarpetBombing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Key = SrcIP
	cfg.Threshold = 1000
	cfg.Window = eventsim.Second

	carpet := attackSpec()
	carpet.DstHostBits = 8 // spreads destinations, source stays fixed
	src := traffic.Merge(
		traffic.NewCBR(0, 15*eventsim.Second, 4e6, benignSpec(1).Factory(1)),
		traffic.NewCBR(eventsim.Second, 15*eventsim.Second, 40e6, carpet.Factory(2)),
	)
	_, j := run(t, cfg, src, 18*eventsim.Second)
	if j.FirstMitigation < 0 {
		t.Fatal("srcIP signature should catch carpet bombing")
	}
}

func TestTwoConsecutiveWindowsRequired(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 1000
	cfg.Window = eventsim.Second

	// A one-window burst must not trigger mitigation.
	burst := traffic.NewCBR(eventsim.Second+eventsim.Second/10, eventsim.Second+9*eventsim.Second/10, 40e6, attackSpec().Factory(1))
	_, j := run(t, cfg, burst, 10*eventsim.Second)
	if j.FirstMitigation >= 0 {
		t.Fatalf("single-window burst mitigated at %v", j.FirstMitigation)
	}
}

func TestLowThresholdDropsBenignTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 10 // absurdly low: benign flows cross it too
	cfg.Window = eventsim.Second

	src := traffic.Merge(
		traffic.NewCBR(0, 10*eventsim.Second, 4e6, benignSpec(1).Factory(1)),
		traffic.NewCBR(0, 10*eventsim.Second, 4e6, benignSpec(2).Factory(2)),
	)
	rec, j := run(t, cfg, src, 12*eventsim.Second)
	if len(j.rules) == 0 {
		t.Fatal("low threshold should flag benign flows")
	}
	if rec.BenignDropPercent() < 20 {
		t.Fatalf("benign drops %v%%, expected heavy false-positive damage", rec.BenignDropPercent())
	}
}

func TestSketchResetPeriodWeakensDetection(t *testing.T) {
	// With a threshold reachable only by accumulating several seconds
	// of counts, a fast reset keeps estimates below it.
	mk := func(reset eventsim.Time) eventsim.Time {
		cfg := DefaultConfig()
		cfg.Threshold = 30_000 // 10k pps attack: needs >3 s of accumulation
		cfg.Window = eventsim.Second
		cfg.ResetPeriod = reset
		src := traffic.Merge(
			traffic.NewCBR(0, 30*eventsim.Second, 4e6, benignSpec(1).Factory(1)),
			traffic.NewCBR(0, 30*eventsim.Second, 40e6, attackSpec().Factory(2)),
		)
		_, j := run(t, cfg, src, 32*eventsim.Second)
		return j.FirstMitigation
	}
	fast := mk(eventsim.Second)
	slow := mk(10 * eventsim.Second)
	if fast >= 0 {
		t.Fatalf("fast reset should prevent reaching the high threshold, mitigated at %v", fast)
	}
	if slow < 0 {
		t.Fatal("slow reset should eventually accumulate past the threshold")
	}
}

func BenchmarkAdmit(b *testing.B) {
	eng := eventsim.New()
	port := netsim.NewPort(eng, queue.NewFIFO(125_000), 10e6, nil)
	j := attach(b, eng, port, DefaultConfig())
	p := &packet.Packet{
		SrcIP: packet.V4(1, 2, 3, 4), DstIP: packet.V4(5, 6, 7, 8),
		SrcPort: 100, DstPort: 200, Length: 500, Protocol: packet.ProtoUDP,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.admit(p)
	}
}
