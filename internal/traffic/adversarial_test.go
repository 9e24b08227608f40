package traffic

import (
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

func TestEvasionLevels(t *testing.T) {
	end := eventsim.Second
	// Level 0: one 5-tuple. Level 6: everything random.
	lvl0, err := Evasion(0, 0, end, 8e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	flows := map[fiveTuple]bool{}
	for _, tp := range Collect(lvl0) {
		flows[flowOf(tp.Pkt)] = true
		if tp.Pkt.Label != packet.Malicious {
			t.Fatal("evasion traffic must be malicious")
		}
	}
	if len(flows) != 1 {
		t.Fatalf("level 0 should be one flow, got %d", len(flows))
	}

	lvl6, err := Evasion(6, 0, end, 8e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[uint32]bool{}
	dsts := map[uint32]bool{}
	lens := map[uint16]bool{}
	n := 0
	for _, tp := range Collect(lvl6) {
		srcs[tp.Pkt.SrcIP.Uint32()] = true
		dsts[tp.Pkt.DstIP.Uint32()] = true
		lens[tp.Pkt.Length] = true
		n++
	}
	if len(srcs) < n/2 || len(dsts) < n/10 || len(lens) < 100 {
		t.Fatalf("level 6 not random enough: %d srcs %d dsts %d lens of %d pkts",
			len(srcs), len(dsts), len(lens), n)
	}

	if _, err := Evasion(-1, 0, end, 8e6, 1); err == nil {
		t.Fatal("negative level accepted")
	}
	if _, err := Evasion(7, 0, end, 8e6, 1); err == nil {
		t.Fatal("level 7 accepted")
	}
}

func TestSpreadAttack(t *testing.T) {
	end := eventsim.Second
	src, err := SpreadAttack(8, 0, end, 8e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	flows := map[fiveTuple]int{}
	bytes := 0
	for _, tp := range Collect(src) {
		flows[flowOf(tp.Pkt)]++
		bytes += tp.Pkt.Size()
	}
	if len(flows) != 8 {
		t.Fatalf("%d distinct aggregates, want 8", len(flows))
	}
	// Total rate preserved (within 10%).
	got := float64(bytes) * 8
	if got < 0.9*8e6 || got > 1.1*8e6 {
		t.Fatalf("total spread rate %v, want ~8e6", got)
	}
	if _, err := SpreadAttack(0, 0, end, 8e6, 1); err == nil {
		t.Fatal("zero aggregates accepted")
	}
}

func TestSwappingAttackShapes(t *testing.T) {
	benign, attack := SwappingAttack(0, eventsim.Second, 4e6, 8e6, 1)
	bFlows := map[fiveTuple]bool{}
	for _, tp := range Collect(benign) {
		bFlows[flowOf(tp.Pkt)] = true
		if tp.Pkt.Label != packet.Benign {
			t.Fatal("stream must be benign")
		}
	}
	if len(bFlows) != 1 {
		t.Fatalf("benign stream should be one flow, got %d", len(bFlows))
	}
	aFlows := map[fiveTuple]bool{}
	n := 0
	for _, tp := range Collect(attack) {
		aFlows[flowOf(tp.Pkt)] = true
		n++
		if tp.Pkt.Label != packet.Malicious {
			t.Fatal("noise must be malicious")
		}
	}
	if len(aFlows) < n/2 {
		t.Fatalf("noise should be near-unique per packet: %d flows of %d", len(aFlows), n)
	}
}

func TestImitationAttackMatchesBackgroundShape(t *testing.T) {
	imit := ImitationAttack(0, eventsim.Second, 5e6, 3)
	real := NewBackground(BackgroundConfig{Rate: 5e6, Start: 0, End: eventsim.Second, Seed: 3})
	ip, rp := Collect(imit), Collect(real)
	if len(ip) != len(rp) {
		t.Fatalf("imitation diverges from background: %d vs %d packets", len(ip), len(rp))
	}
	for i := range ip {
		if ip[i].Pkt.Label != packet.Malicious {
			t.Fatal("imitation must be labeled malicious")
		}
		// Same headers as the background it imitates.
		if flowOf(ip[i].Pkt) != flowOf(rp[i].Pkt) || ip[i].Pkt.Length != rp[i].Pkt.Length {
			t.Fatalf("packet %d differs from the imitated distribution", i)
		}
	}
}
