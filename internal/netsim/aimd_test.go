package netsim

import (
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

func aimdConfig(flowID uint32, end eventsim.Time) AIMDConfig {
	return AIMDConfig{
		SrcIP: packet.V4Addr{172, 16, 0, byte(flowID)}, DstIP: packet.V4Addr{198, 18, 0, byte(flowID)},
		SrcPort: uint16(10_000 + flowID), DstPort: 443,
		Size: 1000, RTT: 10 * eventsim.Millisecond,
		End: end, FlowID: flowID, Seed: int64(flowID),
	}
}

func TestAIMDSaturatesAnIdleLink(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(125_000), 10e6, rec)
	a := NewAIMD(eng, port, aimdConfig(1, 10*eventsim.Second))
	eng.RunUntil(11 * eventsim.Second)

	// A single AIMD flow on an empty 10 Mbps link should reach a good
	// fraction of capacity (window growth + halving oscillation).
	if g := a.Goodput(); g < 5e6 {
		t.Fatalf("goodput %v bps, want > 5 Mbps on an idle 10 Mbps link", g)
	}
	if a.Lost == 0 {
		t.Fatal("a saturating flow must see losses (buffer overflow)")
	}
	if len(a.WindowTrace) == 0 {
		t.Fatal("window trace empty")
	}
	if a.Acked > a.Sent {
		t.Fatalf("acked %d > sent %d", a.Acked, a.Sent)
	}
}

func TestAIMDBacksOffUnderFlood(t *testing.T) {
	run := func(defended bool) float64 {
		eng := eventsim.New()
		rec := NewRecorder(eventsim.Second)
		var port *Port
		if defended {
			pq := queue.NewPriority(2, 62_500, func(_ eventsim.Time, p *packet.Packet) int {
				if p.Label == packet.Malicious {
					return 1
				}
				return 0
			})
			port = NewPort(eng, pq, 10e6, rec)
		} else {
			port = NewPort(eng, queue.NewFIFO(125_000), 10e6, rec)
		}
		a := NewAIMD(eng, port, aimdConfig(1, 20*eventsim.Second))
		// Flood from t=5 s at 5x the link rate.
		flood := traffic.FlowSpec{
			SrcIP: packet.V4Addr{9, 9, 9, 9}, DstIP: packet.V4Addr{10, 0, 5, 1},
			Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80, TTL: 54, Size: 1000,
			Label: packet.Malicious, FlowID: 5,
		}
		Replay(eng, traffic.NewCBR(5*eventsim.Second, 20*eventsim.Second, 50e6, flood.Factory(2)), port)
		eng.RunUntil(21 * eventsim.Second)
		return a.Goodput()
	}
	undefended := run(false)
	defended := run(true)
	// The paper's point: with congestion control in the loop, an
	// undefended flood collapses benign goodput; a scheduling defense
	// preserves it.
	if undefended > defended/2 {
		t.Fatalf("flood should collapse undefended AIMD goodput: undefended %v vs defended %v",
			undefended, defended)
	}
	if defended < 4e6 {
		t.Fatalf("defended goodput %v too low", defended)
	}
}

func TestAIMDTwoFlowsShareFairly(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(125_000), 10e6, rec)
	a := NewAIMD(eng, port, aimdConfig(1, 15*eventsim.Second))
	b := NewAIMD(eng, port, aimdConfig(2, 15*eventsim.Second))
	eng.RunUntil(16 * eventsim.Second)
	ga, gb := a.Goodput(), b.Goodput()
	if ga <= 0 || gb <= 0 {
		t.Fatalf("goodputs: %v %v", ga, gb)
	}
	ratio := ga / gb
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("unfair share: %v vs %v (ratio %v)", ga, gb, ratio)
	}
}

func TestAIMDValidation(t *testing.T) {
	eng := eventsim.New()
	port := NewPort(eng, queue.NewFIFO(1000), 1e6, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAIMD(eng, port, AIMDConfig{End: 0})
}
