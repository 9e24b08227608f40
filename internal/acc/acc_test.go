package acc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// quickConfig fixes the generator of a quick.Check, so a failing input
// is the same on every run.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func TestDefaultConfigMatchesTable4(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.K != 2*eventsim.Second {
		t.Errorf("K = %v, want 2s", cfg.K)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"PHigh", PHigh, 0.1},
		{"PTarget", PTarget, 0.05},
		{"RateEWMAInterval (s)", RateEWMAInterval.Seconds(), 0.1},
		{"MaxSessions", MaxSessions, 5},
		{"ReleaseTime (s)", ReleaseTime.Seconds(), 10},
		{"FreeTime (s)", FreeTime.Seconds(), 20},
		{"CycleTime (s)", CycleTime.Seconds(), 5},
		{"InitTime (s)", InitTime.Seconds(), 0.5},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, k := range []eventsim.Time{0, -eventsim.Second} {
		cfg := Config{K: k}
		if err := cfg.Validate(); err == nil {
			t.Errorf("K %v should invalidate config", k)
		}
		// Attach must refuse before it wires anything: it chains the
		// drop hook and the ingress stage before it schedules its timers.
		eng := eventsim.New()
		port := netsim.NewPort(eng, queue.NewRED(10_000, 1e6), 8e6, nil)
		if a, err := Attach(eng, port, cfg); err == nil || a != nil {
			t.Errorf("K %v: Attach = (%v, %v), want only an error", k, a, err)
		}
		if eng.Pending() != 0 || port.Dropped != nil {
			t.Errorf("K %v: Attach scheduled %d events or chained a drop hook before refusing", k, eng.Pending())
		}
	}
}

// attach is Attach for a configuration the test expects to be valid.
func attach(tb testing.TB, eng *eventsim.Engine, port *netsim.Port, cfg Config) *ACC {
	tb.Helper()
	a, err := Attach(eng, port, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{Addr: 0x0a000500, Bits: 24} // 10.0.5.0/24
	if !p.Contains(0x0a000501) || !p.Contains(0x0a0005ff) {
		t.Error("prefix should contain its hosts")
	}
	if p.Contains(0x0a000601) {
		t.Error("prefix should exclude neighbors")
	}
	if p.String() != "10.0.5.0/24" {
		t.Errorf("String = %q", p.String())
	}
	all := Prefix{Bits: 0}
	if !all.Contains(0xffffffff) {
		t.Error("/0 contains everything")
	}
}

func TestWaterfill(t *testing.T) {
	// rates 10, 6, 2; excess 4 -> limiting only the top: L = 10-4 = 6,
	// which is >= rates[1] = 6, so one aggregate suffices.
	l, n := waterfill([]float64{10, 6, 2}, 4)
	if n != 1 || l != 6 {
		t.Fatalf("got L=%v n=%d, want 6, 1", l, n)
	}
	// excess 8: top two to L = (16-8)/2 = 4 >= rates[2]=2. n=2.
	l, n = waterfill([]float64{10, 6, 2}, 8)
	if n != 2 || l != 4 {
		t.Fatalf("got L=%v n=%d, want 4, 2", l, n)
	}
	// excess exceeding everything: L clamps at 0, all aggregates.
	l, n = waterfill([]float64{10, 6, 2}, 100)
	if n != 3 || l != 0 {
		t.Fatalf("got L=%v n=%d, want 0, 3", l, n)
	}
	if _, n := waterfill(nil, 5); n != 0 {
		t.Fatal("empty rates")
	}
}

// Invariant: the water-filling identity sum(min(rate_i, L)... ) —
// specifically sum over chosen aggregates of (rate_i - L) >= excess
// (equality unless L clamped at 0), and L never exceeds the smallest
// chosen rate's ceiling rule.
func TestQuickWaterfill(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		rates := make([]float64, n)
		for i := range rates {
			rates[i] = r.Float64() * 100
		}
		// sort descending
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rates[j] > rates[i] {
					rates[i], rates[j] = rates[j], rates[i]
				}
			}
		}
		var total float64
		for _, x := range rates {
			total += x
		}
		excess := r.Float64() * total * 1.2
		l, cnt := waterfill(rates, excess)
		if cnt < 1 || cnt > n || l < 0 {
			return false
		}
		var shed float64
		for i := 0; i < cnt; i++ {
			shed += rates[i] - l
		}
		if l > 0 {
			// Exact shed within float tolerance.
			return shed >= excess-1e-6 && shed <= excess+1e-6
		}
		return true // clamped: shed everything possible
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

func mkHistory(entries map[uint32]int) []dropRecord {
	var h []dropRecord
	for addr, n := range entries {
		for i := 0; i < n; i++ {
			h = append(h, dropRecord{dst: addr, size: 500})
		}
	}
	return h
}

func TestIdentifyAggregatesFindsHotPrefix(t *testing.T) {
	// 100 drops on 10.0.5.x, background noise of 1 drop each on
	// scattered addresses.
	entries := map[uint32]int{}
	for i := 0; i < 10; i++ {
		entries[0x0a000500|uint32(i)] = 10
	}
	for i := 0; i < 20; i++ {
		entries[0xc0a80000|uint32(i)<<8|uint32(i)] = 1
	}
	aggs := identifyAggregates(mkHistory(entries))
	if len(aggs) == 0 {
		t.Fatal("no aggregates identified")
	}
	top := aggs[0]
	if !top.prefix.Contains(0x0a000505) {
		t.Fatalf("top aggregate %v does not cover the hot prefix", top.prefix)
	}
	if top.drops != 100 {
		t.Fatalf("top drops = %d, want 100", top.drops)
	}
}

func TestIdentifyAggregatesNarrowsToHost(t *testing.T) {
	// All drops on a single address: the subtree walk must narrow to /32.
	entries := map[uint32]int{0x0a000507: 50}
	aggs := identifyAggregates(mkHistory(entries))
	if len(aggs) != 1 {
		t.Fatalf("%d aggregates", len(aggs))
	}
	if aggs[0].prefix.Bits != 32 || aggs[0].prefix.Addr != 0x0a000507 {
		t.Fatalf("prefix = %v, want 10.0.5.7/32", aggs[0].prefix)
	}
}

func TestIdentifyAggregatesEmptyHistory(t *testing.T) {
	if aggs := identifyAggregates(nil); aggs != nil {
		t.Fatalf("empty history gave %v", aggs)
	}
}

// buildScenario wires a port with RED + ACC and replays the Fig. 2
// workload at a small scale.
func runACCOriginal(t *testing.T, cfg Config, linkRate float64) (*netsim.Recorder, *ACC) {
	t.Helper()
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	port := netsim.NewPort(eng, queue.NewRED(int(linkRate/8/10), linkRate/8), linkRate, rec)
	agent := attach(t, eng, port, cfg)
	netsim.Replay(eng, traffic.ACCOriginal(linkRate), port)
	eng.RunUntil(50 * eventsim.Second)
	return rec, agent
}

func TestACCMitigatesOriginalExperiment(t *testing.T) {
	const link = 10e6
	rec, agent := runACCOriginal(t, DefaultConfig(), link)

	if agent.Activations == 0 {
		t.Fatal("agent never activated despite a 3x attack")
	}
	if agent.FirstActivation < 13*eventsim.Second {
		t.Fatalf("activated at %v, before the attack began", agent.FirstActivation)
	}
	// The paper reports ~4 s reaction with K=2 s: activation within
	// [13s, 21s].
	if agent.FirstActivation > 21*eventsim.Second {
		t.Fatalf("activation too slow: %v", agent.FirstActivation)
	}
	// After mitigation, benign aggregates should recover: in the last
	// 10 s of the attack plateau, benign delivered >> no-defense case.
	benign := rec.DeliveredBits(packet.Benign)
	var avg float64
	for i := 20; i < 25; i++ {
		avg += benign[i]
	}
	avg /= 5
	if avg < 0.5*link {
		t.Fatalf("benign throughput %v during mitigated attack, want > 50%% of link", avg)
	}
}

func TestFIFOBaselineFailsWhereACCSucceeds(t *testing.T) {
	const link = 10e6
	// FIFO only.
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	port := netsim.NewPort(eng, queue.NewFIFO(int(link/8/10)), link, rec)
	netsim.Replay(eng, traffic.ACCOriginal(link), port)
	eng.RunUntil(50 * eventsim.Second)
	benign := rec.DeliveredBits(packet.Benign)
	var fifoAvg float64
	for i := 20; i < 25; i++ {
		fifoAvg += benign[i]
	}
	fifoAvg /= 5

	recACC, _ := runACCOriginal(t, DefaultConfig(), link)
	benignACC := recACC.DeliveredBits(packet.Benign)
	var accAvg float64
	for i := 20; i < 25; i++ {
		accAvg += benignACC[i]
	}
	accAvg /= 5
	if accAvg <= fifoAvg*1.2 {
		t.Fatalf("ACC (%v bps) should beat FIFO (%v bps) under attack", accAvg, fifoAvg)
	}
}

// TestSessionsInstallAndRelease runs Table 4's session timers: a session
// installed during a 10 s attack is released once the aggregate has
// behaved for FreeTime, counted at CycleTime revisits.
func TestSessionsInstallAndRelease(t *testing.T) {
	const link = 10e6
	eng := eventsim.New()
	port := netsim.NewPort(eng, queue.NewRED(int(link/8/10), link/8), link, netsim.NewRecorder(eventsim.Second))
	agent := attach(t, eng, port, DefaultConfig())

	// Attack for 10 s, then silence.
	const attackEnd = 10 * eventsim.Second
	spec := traffic.FlowSpec{
		SrcIP: packet.V4Addr{9, 9, 9, 9}, DstIP: packet.V4Addr{10, 0, 5, 1},
		Protocol: packet.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 64, Size: 500,
		Label: packet.Malicious, FlowID: 5,
	}
	netsim.Replay(eng, traffic.NewCBR(0, attackEnd, 40e6, spec.Factory(1)), port)
	eng.RunUntil(attackEnd)
	if agent.Activations == 0 || len(agent.Sessions()) == 0 {
		t.Fatalf("%d activations and sessions %v during the attack", agent.Activations, agent.Sessions())
	}
	// Keep the clock running so revisits happen. The behaved count starts
	// at the first revisit after the attack and releases the session once
	// it reaches FreeTime, within FreeTime + 2 cycles of the attack's end;
	// the third cycle is margin.
	eng.Every(eventsim.Second, func(now eventsim.Time) {})
	eng.RunUntil(attackEnd + FreeTime + 3*CycleTime)
	if len(agent.Sessions()) != 0 {
		t.Fatalf("sessions not released after quiet period: %v", agent.Sessions())
	}
}

// TestSessionLimitRespected: installs beyond MaxSessions are refused,
// and re-installing a held prefix updates its session in place.
func TestSessionLimitRespected(t *testing.T) {
	eng := eventsim.New()
	agent := attach(t, eng, netsim.NewPort(eng, queue.NewRED(10_000, 1e6), 8e6, nil), DefaultConfig())
	for i := 0; i < MaxSessions+3; i++ {
		agent.install(0, Prefix{Addr: 0x0a000000 | uint32(i)<<8, Bits: 24}, 1e6, 2e6)
	}
	if got := len(agent.Sessions()); got != MaxSessions {
		t.Fatalf("%d sessions after %d installs, limit %d", got, MaxSessions+3, MaxSessions)
	}
	agent.install(0, Prefix{Addr: 0x0a000000, Bits: 24}, 5e5, 2e6)
	if s := agent.Sessions(); len(s) != MaxSessions || s[0].LimitBits != 5e5 {
		t.Fatalf("re-install of a held prefix: %d sessions, first limit %v", len(s), s[0].LimitBits)
	}
}

func TestNoActivationWithoutCongestion(t *testing.T) {
	const link = 10e6
	eng := eventsim.New()
	port := netsim.NewPort(eng, queue.NewRED(int(link/8/10), link/8), link, netsim.NewRecorder(eventsim.Second))
	agent := attach(t, eng, port, DefaultConfig())
	spec := traffic.FlowSpec{
		SrcIP: packet.V4Addr{1, 1, 1, 1}, DstIP: packet.V4Addr{10, 0, 1, 1},
		Protocol: packet.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 64, Size: 500,
	}
	netsim.Replay(eng, traffic.NewCBR(0, 10*eventsim.Second, 5e6, spec.Factory(1)), port)
	eng.RunUntil(12 * eventsim.Second)
	if agent.Activations != 0 {
		t.Fatalf("%d activations under 50%% load", agent.Activations)
	}
	if len(agent.Sessions()) != 0 {
		t.Fatal("sessions installed without congestion")
	}
}

// TestHistoryHoldsREDDropsOnly: the window's drop count and the drop
// history are RED's early and tail drops, in the order the port reported
// them. The drops of an
// installed session's policer and of a failed link on the same port stay
// out, and a Dropped hook set before Attach still sees every drop.
func TestHistoryHoldsREDDropsOnly(t *testing.T) {
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	port := netsim.NewPort(eng, queue.NewRED(10_000, 1e6), 8e6, rec)
	pool := packet.NewPool()
	port.SetPool(pool)
	var before [queue.DropLinkDown + 1]uint64
	var want []dropRecord
	port.Dropped = func(_ eventsim.Time, p *packet.Packet, reason queue.DropReason) {
		before[reason]++
		if reason == queue.DropEarly || reason == queue.DropTail {
			want = append(want, dropRecord{dst: p.DstIP.Uint32(), size: p.Size()})
		}
	}
	cfg := DefaultConfig()
	agent := attach(t, eng, port, cfg)
	policed := Prefix{Addr: packet.V4(10, 0, 9, 0).Uint32(), Bits: 24}
	agent.install(0, policed, 1000, 1e6)

	// A flood at 2.5x the link fills the FIFO before RED's average
	// rises (tail drops), then holds the average in the early-drop
	// region; the policed flow and a 100 ms link failure add the other
	// two reasons.
	flow := func(dst packet.V4Addr, rate float64, id uint32) traffic.Source {
		spec := traffic.FlowSpec{
			SrcIP: packet.V4(9, 9, 9, 9), DstIP: dst, Protocol: packet.ProtoUDP,
			SrcPort: 1, DstPort: 2, TTL: 64, Size: 500, Label: packet.Malicious, FlowID: id,
		}
		return traffic.NewCBR(0, cfg.K, rate, spec.Factory(int64(id)))
	}
	src := traffic.Merge(flow(packet.V4(10, 0, 5, 1), 20e6, 1), flow(packet.V4(10, 0, 9, 1), 1e6, 2))
	traffic.AttachPool(src, pool)
	netsim.Replay(eng, src, port)
	eng.At(cfg.K/2, func(now eventsim.Time) { port.SetLinkState(now, false) })
	eng.At(cfg.K/2+100*eventsim.Millisecond, func(now eventsim.Time) { port.SetLinkState(now, true) })
	eng.RunUntil(cfg.K - 1) // the first monitor resets the window at K

	early, tail := rec.DroppedFor(queue.DropEarly), rec.DroppedFor(queue.DropTail)
	for r := queue.DropTail; r <= queue.DropLinkDown; r++ {
		if r != queue.DropPushOut && (rec.DroppedFor(r) == 0 || before[r] != rec.DroppedFor(r)) {
			t.Errorf("%v: %d drops recorded, %d seen by the earlier hook; want equal and nonzero", r, rec.DroppedFor(r), before[r])
		}
	}
	if agent.winDrops != early+tail {
		t.Errorf("window counts %d drops, RED dropped %d early + %d tail", agent.winDrops, early, tail)
	}
	if !slices.Equal(agent.history, want) {
		t.Errorf("history holds %d drops, want RED's %d in port order", len(agent.history), len(want))
	}
}

func BenchmarkAdmitWithSessions(b *testing.B) {
	eng := eventsim.New()
	port := netsim.NewPort(eng, queue.NewRED(100_000, 1e9), 10e6, nil)
	agent := attach(b, eng, port, DefaultConfig())
	for i := 0; i < 5; i++ {
		agent.install(0, Prefix{Addr: uint32(i) << 8, Bits: 24}, 1e6, 2e6)
	}
	p := &packet.Packet{
		SrcIP: packet.V4(1, 1, 1, 1), DstIP: packet.V4(0, 0, 3, 7),
		Length: 500, Protocol: packet.ProtoUDP,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agent.admit(eventsim.Time(i), p)
	}
}
