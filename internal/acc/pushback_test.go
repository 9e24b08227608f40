package acc

import (
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

// pushbackTopology builds the two-upstream scenario: U1 and U2 each
// feed the core C over 20 Mbps links; C's output is the 10 Mbps
// bottleneck. Benign traffic enters through both upstreams; the attack
// enters only through U1. Returns the end-to-end benign drop
// percentage (edge arrivals vs core deliveries).
func pushbackTopology(t *testing.T, withPushback bool) float64 {
	t.Helper()
	const (
		coreRate = 10e6
		upRate   = 20e6
	)
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	rec1 := netsim.NewRecorder(eventsim.Second)
	rec2 := netsim.NewRecorder(eventsim.Second)

	core := netsim.NewPort(eng, queue.NewRED(int(coreRate/8/10), coreRate/8), coreRate, rec)
	agent := attach(t, eng, core, DefaultConfig())

	u1 := netsim.NewPort(eng, queue.NewFIFO(int(upRate/8/10)), upRate, rec1)
	u2 := netsim.NewPort(eng, queue.NewFIFO(int(upRate/8/10)), upRate, rec2)
	netsim.Chain(eng, u1, core, eventsim.Millisecond)
	netsim.Chain(eng, u2, core, eventsim.Millisecond)

	if withPushback {
		ups := []*Upstream{NewUpstream("u1", u1), NewUpstream("u2", u2)}
		EnablePushback(eng, agent, ups)
	}

	// Benign: 4 Mbps of CAIDA-like background entering each upstream.
	// Random (Poisson) arrivals matter here: perfectly periodic CBR
	// phase-locks with the deterministic FIFO drain and never drops.
	mkBenign := func(i int64) traffic.Source {
		return traffic.NewBackground(traffic.BackgroundConfig{
			Rate: 4e6, Start: 0, End: 40 * eventsim.Second, Seed: i,
		})
	}
	// Attack: 60 Mbps into U1 (3x its link), distinct /24.
	attackSpec := traffic.FlowSpec{
		SrcIP: packet.V4Addr{9, 9, 9, 9}, DstIP: packet.V4Addr{10, 250, 9, 0},
		Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80,
		TTL: 54, Size: 500, Label: packet.Malicious, Vector: "flood",
		FlowID: 5, DstHostBits: 4,
	}
	attack := traffic.NewCBR(5*eventsim.Second, 40*eventsim.Second, 60e6, attackSpec.Factory(77))

	netsim.Replay(eng, traffic.Merge(mkBenign(1), attack), u1)
	netsim.Replay(eng, mkBenign(2), u2)
	eng.RunUntil(40 * eventsim.Second)

	offered := rec1.ArrivedBenign() + rec2.ArrivedBenign()
	if offered == 0 {
		t.Fatal("no benign traffic offered")
	}
	delivered := rec.DeliveredBenignPkts()
	return 100 * (1 - float64(delivered)/float64(offered))
}

func TestPushbackProtectsSharedUpstreamLink(t *testing.T) {
	local := pushbackTopology(t, false)
	pushed := pushbackTopology(t, true)

	// Without pushback the attack saturates U1's 20 Mbps link, so the
	// benign flow sharing U1 is crushed before the core's ACC can act.
	// With pushback the limit moves to U1's ingress and that benign
	// flow survives.
	localBenign := local
	pushedBenign := pushed
	if pushedBenign >= localBenign {
		t.Fatalf("pushback did not help: local %.1f%% vs pushback %.1f%%", localBenign, pushedBenign)
	}
	if localBenign-pushedBenign < 10 {
		t.Fatalf("pushback benefit too small: local %.1f%% vs pushback %.1f%%", localBenign, pushedBenign)
	}
}

func TestUpstreamLimiterMechanics(t *testing.T) {
	eng := eventsim.New()
	port := netsim.NewPort(eng, queue.NewFIFO(100_000), 10e6, nil)
	u := NewUpstream("u", port)

	prefix := Prefix{Addr: 0x0a000500, Bits: 24}
	u.Install(prefix, 8e6)
	if len(u.rules) != 1 {
		t.Fatalf("rules = %d", len(u.rules))
	}
	// Matching packet consumes tokens and is counted.
	p := &packet.Packet{SrcIP: packet.V4(1, 1, 1, 1), DstIP: packet.V4(10, 0, 5, 7),
		Length: 500, Protocol: packet.ProtoUDP}
	if !u.admit(0, p) {
		t.Fatal("first packet should conform")
	}
	if n, ok := u.Report(prefix); !ok || n != 500 {
		t.Fatalf("report = %d, %v", n, ok)
	}
	// Report resets the counter.
	if n, _ := u.Report(prefix); n != 0 {
		t.Fatalf("report not reset: %d", n)
	}
	// Non-matching packets pass untouched.
	q := p.Clone()
	q.DstIP = packet.V4(99, 0, 0, 1)
	if !u.admit(0, q) {
		t.Fatal("non-matching packet policed")
	}
	// Update keeps the rule; release removes it.
	u.Install(prefix, 1e6)
	if len(u.rules) != 1 {
		t.Fatal("install duplicated rule")
	}
	u.Release(prefix)
	if len(u.rules) != 0 {
		t.Fatal("release failed")
	}
	if _, ok := u.Report(prefix); ok {
		t.Fatal("report on released rule")
	}
}

func TestPushbackReleasesWithDownstream(t *testing.T) {
	eng := eventsim.New()
	const link = 10e6
	core := netsim.NewPort(eng, queue.NewRED(int(link/8/10), link/8), link, netsim.NewRecorder(eventsim.Second))
	agent := attach(t, eng, core, DefaultConfig())

	up := netsim.NewPort(eng, queue.NewFIFO(100_000), 20e6, nil)
	netsim.Chain(eng, up, core, eventsim.Millisecond)
	u := NewUpstream("u", up)
	pb := EnablePushback(eng, agent, []*Upstream{u})

	spec := traffic.FlowSpec{
		SrcIP: packet.V4Addr{9, 9, 9, 9}, DstIP: packet.V4Addr{10, 0, 5, 1},
		Protocol: packet.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 64, Size: 500,
		Label: packet.Malicious, FlowID: 5,
	}
	const attackEnd = 8 * eventsim.Second
	netsim.Replay(eng, traffic.NewCBR(0, attackEnd, 40e6, spec.Factory(1)), up)
	eng.RunUntil(attackEnd + 2*eventsim.Second)
	if len(u.rules) == 0 {
		t.Fatal("no upstream rule installed during the attack")
	}
	if pb.Propagations == 0 {
		t.Fatal("no propagations recorded")
	}
	// Quiet period: downstream releases at Table 4's timers, within
	// FreeTime + 2 cycles of the attack's end (the third cycle is margin),
	// and upstream must follow within a refresh.
	eng.RunUntil(attackEnd + FreeTime + 3*CycleTime + InitTime)
	if len(u.rules) != 0 {
		t.Fatalf("upstream rules not released: %d", len(u.rules))
	}
	if len(pb.active) != 0 {
		t.Fatalf("active prefixes remain: %v", pb.active)
	}
}

func TestEnablePushbackValidation(t *testing.T) {
	eng := eventsim.New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EnablePushback(eng, nil, nil)
}
