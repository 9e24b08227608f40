package accturbo

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func floodPacket() *Packet {
	return &Packet{
		SrcIP: V4(203, 0, 113, 9), DstIP: V4(198, 18, 7, 1),
		Protocol: 17, SrcPort: 123, DstPort: 7777, TTL: 58, Length: 1000,
	}
}

func benignPacket(i int) *Packet {
	return &Packet{
		SrcIP: V4(byte(i*37), byte(i*11), byte(i*53), byte(i*91)), DstIP: V4(198, 18, byte(i*7), byte(i*13)),
		Protocol: 6, SrcPort: uint16(1024 + i*71), DstPort: 443,
		TTL: uint8(40 + i%100), Length: uint16(40 + (i*131)%1400),
	}
}

// build runs a Defense constructor on a configuration the test expects
// to be valid.
func build(tb testing.TB, newDefense func(Config) (*Defense, error), cfg Config) *Defense {
	tb.Helper()
	d, err := newDefense(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestConstructorsRefuseInvalidConfig: both constructors answer a bad
// configuration with an error and start nothing, in either mode.
func TestConstructorsRefuseInvalidConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Clustering.MaxClusters = 0 },
		func(c *Config) { c.PollInterval = 0 },
		func(c *Config) { c.DeployDelay = -1 },
		func(c *Config) { c.NumQueues = -1 },
		func(c *Config) { c.FailOpenAfter = -1 },
	}
	ctors := []struct {
		name string
		new  func(Config) (*Defense, error)
	}{{"NewDefense", NewDefense}, {"NewRealTimeDefense", NewRealTimeDefense}}
	base := runtime.NumGoroutine()
	for i, m := range bad {
		for _, shards := range []int{0, 4} {
			cfg := DefaultConfig()
			cfg.Shards = shards
			m(&cfg)
			for _, c := range ctors {
				if d, err := c.new(cfg); err == nil || d != nil {
					t.Errorf("mutation %d, shards %d: %s = (%v, %v), want only an error", i, shards, c.name, d, err)
				}
			}
		}
	}
	waitNoExtraGoroutines(t, base)
}

func TestDefenseProcess(t *testing.T) {
	cfg := HardwareConfig()
	cfg.Clustering.SliceInit = true
	cfg.PollInterval = FromDuration(100 * time.Millisecond)
	cfg.DeployDelay = FromDuration(10 * time.Millisecond)
	d := build(t, NewDefense, cfg)

	// Mixed traffic: one benign packet and nine flood packets per ms.
	var lastFlood, lastBenign Verdict
	for ms := 0; ms < 1000; ms++ {
		at := time.Duration(ms) * time.Millisecond
		lastBenign = d.Process(at, benignPacket(ms))
		for i := 0; i < 9; i++ {
			lastFlood = d.Process(at, floodPacket())
		}
	}
	if lastFlood.Cluster < 0 || lastFlood.Cluster >= cfg.Clustering.MaxClusters {
		t.Fatalf("flood cluster out of range: %+v", lastFlood)
	}
	// After several control cycles, the flood's cluster must sit in a
	// strictly worse queue than the latest benign packet's.
	if lastFlood.Queue <= lastBenign.Queue {
		t.Fatalf("flood queue %d not below benign queue %d", lastFlood.Queue, lastBenign.Queue)
	}
	if d.NumQueues() != 4 {
		t.Fatalf("NumQueues = %d", d.NumQueues())
	}
	if d.LastDecision() == nil {
		t.Fatal("no control-loop decision after 1 s")
	}
	infos := d.Clusters()
	if len(infos) != 4 {
		t.Fatalf("%d clusters", len(infos))
	}
	var total uint64
	for _, info := range infos {
		total += info.TotalPackets
	}
	if total != 10*1000 {
		t.Fatalf("cluster packet accounting: %d, want 10000", total)
	}
	if q := d.QueueOf(lastFlood.Cluster); q != lastFlood.Queue {
		t.Fatalf("QueueOf disagrees with verdict: %d vs %d", q, lastFlood.Queue)
	}
}

// TestDefenseZeroValuePacket: the zero Packet is an ordinary packet
// from and to 0.0.0.0 — it is processed, assigned and counted, and the
// helpers keyed on its addresses are total. (With netip.Addr fields the
// zero value was "no address" and every one of these calls panicked.)
func TestDefenseZeroValuePacket(t *testing.T) {
	cfg := HardwareConfig()
	d := build(t, NewDefense, cfg)
	defer d.Close()
	p := &Packet{Length: 100}
	v := d.Process(0, p)
	if !v.NewCluster || v.Cluster < 0 || v.Cluster >= cfg.Clustering.MaxClusters {
		t.Fatalf("zero-value packet not assigned: %+v", v)
	}
	if again := d.Process(time.Millisecond, &Packet{Length: 100}); again.Cluster != v.Cluster || again.Distance != 0 {
		t.Fatalf("second zero-value packet not covered by the first's cluster: %+v after %+v", again, v)
	}
	if got := d.PacketsObserved(); got != 2 {
		t.Fatalf("PacketsObserved = %d, want 2", got)
	}
	if DstKey(p) != 0 || p.SrcIP.String() != "0.0.0.0" {
		t.Fatalf("DstKey = %d, SrcIP = %s", DstKey(p), p.SrcIP)
	}
	if err := p.MarshalTo(make([]byte, p.WireLen())); err != nil {
		t.Fatalf("MarshalTo: %v", err)
	}
}

func TestDefenseVerdictDistance(t *testing.T) {
	d := build(t, NewDefense, DefaultConfig())
	v1 := d.Process(0, floodPacket())
	if !v1.NewCluster {
		t.Fatal("first packet must seed a cluster")
	}
	v2 := d.Process(time.Millisecond, floodPacket())
	if v2.NewCluster || v2.Distance != 0 {
		t.Fatalf("identical packet should be covered: %+v", v2)
	}
}

func TestDefenseMetrics(t *testing.T) {
	cfg := HardwareConfig()
	cfg.Clustering.SliceInit = true
	cfg.PollInterval = FromDuration(100 * time.Millisecond)
	cfg.DeployDelay = FromDuration(10 * time.Millisecond)
	d := build(t, NewDefense, cfg)

	const n = 500
	for i := 0; i < n; i++ {
		d.Process(time.Duration(i)*time.Millisecond, benignPacket(i))
	}

	m := d.Metrics()
	if m.PacketsObserved != n {
		t.Fatalf("observed %d, want %d", m.PacketsObserved, n)
	}
	if m.Deployments == 0 || m.Deployments != d.Deployments() {
		t.Fatalf("deployments %d (accessor %d)", m.Deployments, d.Deployments())
	}
	var assigned, routed uint64
	for _, c := range m.AssignedPkts {
		assigned += c
	}
	for _, c := range m.RoutedPkts {
		routed += c
	}
	if assigned != n || routed != n {
		t.Fatalf("assigned %d routed %d, want %d each", assigned, routed, n)
	}
	// Deterministic clock: every deployment observed exactly DeployDelay.
	if m.DeployLatencyNs.Count != m.Deployments {
		t.Fatalf("latency count %d, want %d", m.DeployLatencyNs.Count, m.Deployments)
	}
	if m.DeployLatencyNs.Max != int64(cfg.DeployDelay) {
		t.Fatalf("latency max %d, want %d", m.DeployLatencyNs.Max, int64(cfg.DeployDelay))
	}
	if recent := d.RecentDecisions(4); len(recent) == 0 || recent[0] != d.LastDecision() {
		t.Fatalf("RecentDecisions inconsistent with LastDecision: %d entries", len(recent))
	}

	var buf strings.Builder
	if err := d.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE accturbo_packets_observed counter",
		"accturbo_packets_observed 500",
		"accturbo_dataplane_assigned_pkts_0",
		"accturbo_dataplane_routed_pkts_0",
		"accturbo_controlplane_deployments",
		"accturbo_controlplane_deploy_latency_ns_bucket{le=\"+Inf\"}",
		"accturbo_controlplane_deploy_latency_ns_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Each per-slot and per-queue line carries the value Metrics reports.
	lines := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		lines[line] = true
	}
	for name, vals := range map[string][]uint64{
		"accturbo_dataplane_assigned_pkts": m.AssignedPkts,
		"accturbo_dataplane_routed_pkts":   m.RoutedPkts,
	} {
		for i, v := range vals {
			if want := fmt.Sprintf("%s_%d %d", name, i, v); !lines[want] {
				t.Errorf("exposition has no line %q:\n%s", want, out)
			}
		}
	}
}

// TestDefenseReconfigureLive patches the running pipeline and checks
// the change is visible, versioned, and rejected when invalid.
func TestDefenseReconfigureLive(t *testing.T) {
	cfg := HardwareConfig()
	cfg.PollInterval = FromDuration(100 * time.Millisecond)
	cfg.DeployDelay = FromDuration(10 * time.Millisecond)
	d := build(t, NewDefense, cfg)
	defer d.Close()

	if gen := d.ConfigGeneration(); gen != 1 {
		t.Fatalf("initial generation = %d, want 1", gen)
	}
	r, err := ParseRanking("N.P./Size")
	if err != nil {
		t.Fatal(err)
	}
	poll := FromDuration(50 * time.Millisecond)
	gen, err := d.Reconfigure(RuntimePatch{Ranking: &r, PollInterval: &poll})
	if err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if gen != 2 || d.ConfigGeneration() != 2 {
		t.Fatalf("generation = %d/%d, want 2", gen, d.ConfigGeneration())
	}
	if rt := d.Runtime(); rt.Ranking != RankByPacketRateOverSize || rt.PollInterval != poll {
		t.Fatalf("live runtime = %+v", rt)
	}
	bad := FromDuration(0)
	if _, err := d.Reconfigure(RuntimePatch{DeployDelay: &bad}); err == nil {
		t.Fatal("accepted a zero DeployDelay")
	}
	if d.ConfigGeneration() != 2 {
		t.Fatal("failed patch moved the generation")
	}
}

// TestDefenseSnapshotRestore round-trips a warmed-up Defense through
// SaveState/RestoreState: the restored pipeline re-saves byte-identical
// state, reports the pre-save decision as its own, and classifies
// subsequent identical traffic identically.
func TestDefenseSnapshotRestore(t *testing.T) {
	cfg := HardwareConfig()
	cfg.PollInterval = FromDuration(100 * time.Millisecond)
	cfg.DeployDelay = FromDuration(10 * time.Millisecond)
	d := build(t, NewDefense, cfg)
	defer d.Close()

	for ms := 0; ms < 500; ms++ {
		at := time.Duration(ms) * time.Millisecond
		d.Process(at, benignPacket(ms))
		for i := 0; i < 9; i++ {
			d.Process(at, floodPacket())
		}
	}
	if d.LastDecision() == nil {
		t.Fatal("no decision to snapshot")
	}

	var buf strings.Builder
	if err := d.SaveState(&buf); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	blob := buf.String()

	d2 := build(t, NewDefense, cfg)
	defer d2.Close()
	if err := d2.RestoreState(strings.NewReader(blob)); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}

	var buf2 strings.Builder
	if err := d2.SaveState(&buf2); err != nil {
		t.Fatalf("re-SaveState: %v", err)
	}
	if blob != buf2.String() {
		t.Fatal("save→restore→save not byte-identical")
	}
	if got, want := d2.LastDecision(), d.LastDecision(); got == nil || want == nil ||
		got.At != want.At || len(got.QueueOf) != len(want.QueueOf) {
		t.Fatalf("restored decision differs: %+v vs %+v", got, want)
	}
	for i := range d.LastDecision().QueueOf {
		if d2.LastDecision().QueueOf[i] != d.LastDecision().QueueOf[i] {
			t.Fatalf("restored queue map differs at slot %d", i)
		}
	}
	if got, want := d2.PacketsObserved(), d.PacketsObserved(); got != want {
		t.Fatalf("restored observed = %d, want %d", got, want)
	}

	// Two restores from the same blob are behaviorally identical: the
	// snapshot fully determines post-restore classification and control
	// decisions. (The original d is NOT a valid comparator here — its
	// pending sim-clock polls were computed over evolving state, while a
	// restored pipeline re-polls the final state.)
	d3 := build(t, NewDefense, cfg)
	defer d3.Close()
	if err := d3.RestoreState(strings.NewReader(blob)); err != nil {
		t.Fatalf("second RestoreState: %v", err)
	}
	for ms := 500; ms < 700; ms++ {
		at := time.Duration(ms) * time.Millisecond
		v2 := d2.Process(at, benignPacket(ms))
		v3 := d3.Process(at, benignPacket(ms))
		if v2 != v3 {
			t.Fatalf("restored twins diverge at %v: %+v vs %+v", at, v2, v3)
		}
	}

	// A baseline clustering configuration — a Fig. 10 distance, Bloom sets —
	// defends like any other but has no snapshot: saving writes nothing,
	// restoring changes nothing.
	for name, mutate := range map[string]func(*Config){
		"anime": func(c *Config) { c.Clustering.Distance = DistanceAnime },
		"bloom": func(c *Config) { c.Clustering.UseBloom = true },
	} {
		cfg := cfg
		mutate(&cfg)
		base := build(t, NewDefense, cfg)
		defer base.Close()
		for ms := 0; ms < 200; ms++ {
			base.Process(time.Duration(ms)*time.Millisecond, benignPacket(ms))
		}
		var none strings.Builder
		if err := base.SaveState(&none); !errors.Is(err, ErrBaselineSnapshot) || none.Len() != 0 {
			t.Fatalf("%s SaveState = %v with %d bytes written, want ErrBaselineSnapshot and none", name, err, none.Len())
		}
		observed, gen, clusters := base.PacketsObserved(), base.ConfigGeneration(), base.Clusters()
		if err := base.RestoreState(strings.NewReader(blob)); !errors.Is(err, ErrBaselineSnapshot) {
			t.Fatalf("%s RestoreState = %v, want ErrBaselineSnapshot", name, err)
		}
		if base.PacketsObserved() != observed || base.ConfigGeneration() != gen || !reflect.DeepEqual(base.Clusters(), clusters) {
			t.Fatalf("a refused restore changed the %s Defense", name)
		}
	}
}
