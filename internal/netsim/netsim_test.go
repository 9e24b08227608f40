package netsim

import (
	"math"
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
	"accturbo/internal/traffic"
)

func cbr(start, end eventsim.Time, rate float64, label packet.Label, flowID uint32) traffic.Source {
	spec := traffic.FlowSpec{
		SrcIP: packet.V4Addr{1, 1, 1, 1}, DstIP: packet.V4Addr{2, 2, 2, 2},
		Protocol: packet.ProtoUDP, SrcPort: 1, DstPort: 2, TTL: 64, Size: 500,
		Label: label, FlowID: flowID,
	}
	return traffic.NewCBR(start, end, rate, spec.Factory(int64(flowID)))
}

func TestPortDeliversAtLineRate(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	// Offered 20 Mbps into a 10 Mbps port for 5 s.
	port := NewPort(eng, queue.NewFIFO(100_000), 10e6, rec)
	Replay(eng, cbr(0, 5*eventsim.Second, 20e6, packet.Benign, 1), port)
	eng.RunUntil(eventsim.MaxTime)

	out := rec.DeliveredBits(packet.Benign)
	// Steady-state bins should be ~10 Mbps (the line rate).
	for i := 1; i < 4; i++ {
		if math.Abs(out[i]-10e6)/10e6 > 0.05 {
			t.Fatalf("bin %d delivered %v bps, want ~10e6", i, out[i])
		}
	}
	if rec.DroppedBenign() == 0 {
		t.Fatal("overload must drop packets")
	}
	// Conservation: arrived = delivered + dropped + still queued.
	queued := uint64(port.Qdisc().Len())
	if rec.ArrivedBenign() != rec.DeliveredBenignPkts()+rec.DroppedBenign()+queued {
		t.Fatalf("conservation violated: %d != %d + %d + %d",
			rec.ArrivedBenign(), rec.DeliveredBenignPkts(), rec.DroppedBenign(), queued)
	}
}

func TestPortUnderloadDeliversEverything(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(100_000), 10e6, rec)
	Replay(eng, cbr(0, 2*eventsim.Second, 5e6, packet.Benign, 1), port)
	eng.RunUntil(eventsim.MaxTime)
	if rec.DroppedBenign() != 0 {
		t.Fatalf("underload dropped %d packets", rec.DroppedBenign())
	}
	if rec.DeliveredBenignPkts() != rec.ArrivedBenign() {
		t.Fatalf("delivered %d of %d", rec.DeliveredBenignPkts(), rec.ArrivedBenign())
	}
}

func TestIngressPolicerDrops(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(100_000), 10e6, rec)
	seen := 0
	port.AddIngress(func(now eventsim.Time, p *packet.Packet) bool {
		seen++
		return seen%2 == 0 // drop every other packet
	})
	Replay(eng, cbr(0, eventsim.Second, 5e6, packet.Benign, 1), port)
	eng.RunUntil(eventsim.MaxTime)
	if rec.DroppedBenign() == 0 {
		t.Fatal("policer drops not recorded")
	}
	diff := int(rec.DroppedBenign()) - int(rec.DeliveredBenignPkts())
	if diff < -1 || diff > 1 {
		t.Fatalf("drop/deliver split wrong: %d vs %d", rec.DroppedBenign(), rec.DeliveredBenignPkts())
	}
}

func TestIngressOrdering(t *testing.T) {
	eng := eventsim.New()
	port := NewPort(eng, queue.NewFIFO(100_000), 10e6, nil)
	var order []int
	port.AddIngress(func(eventsim.Time, *packet.Packet) bool { order = append(order, 1); return true })
	port.AddIngress(func(eventsim.Time, *packet.Packet) bool { order = append(order, 2); return true })
	p := &packet.Packet{Length: 100, Protocol: packet.ProtoUDP, SrcIP: packet.V4(1, 1, 1, 1), DstIP: packet.V4(2, 2, 2, 2)}
	port.Inject(0, p)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("ingress order: %v", order)
	}
}

func TestDeliveredCallback(t *testing.T) {
	eng := eventsim.New()
	port := NewPort(eng, queue.NewFIFO(100_000), 10e6, nil)
	delivered := 0
	port.Delivered = func(now eventsim.Time, p *packet.Packet) { delivered++ }
	Replay(eng, cbr(0, eventsim.Second/10, 1e6, packet.Benign, 1), port)
	eng.RunUntil(eventsim.MaxTime)
	if delivered == 0 {
		t.Fatal("delivered callback never fired")
	}
}

func TestRecorderClassAttribution(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(1_000_000), 100e6, rec)
	Replay(eng, traffic.Merge(
		cbr(0, eventsim.Second, 10e6, packet.Benign, 1),
		cbr(0, eventsim.Second, 20e6, packet.Malicious, 5),
	), port)
	eng.RunUntil(eventsim.MaxTime)
	b := rec.DeliveredBits(packet.Benign)
	m := rec.DeliveredBits(packet.Malicious)
	if math.Abs(b[0]-10e6)/10e6 > 0.1 {
		t.Fatalf("benign bin0 = %v", b[0])
	}
	if math.Abs(m[0]-20e6)/20e6 > 0.1 {
		t.Fatalf("malicious bin0 = %v", m[0])
	}
	f1 := rec.FlowDeliveredBits(1)
	f5 := rec.FlowDeliveredBits(5)
	if f1[0] <= 0 || f5[0] <= 0 || f5[0] < f1[0] {
		t.Fatalf("per-flow series wrong: %v %v", f1[0], f5[0])
	}
	arrived := rec.ArrivedBits(packet.Benign)
	if math.Abs(arrived[0]-10e6)/10e6 > 0.1 {
		t.Fatalf("arrived benign = %v", arrived[0])
	}
}

func TestDropRateSeries(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(50_000), 10e6, rec)
	// 2x overload: about half the packets must drop.
	Replay(eng, cbr(0, 3*eventsim.Second, 20e6, packet.Benign, 1), port)
	eng.RunUntil(eventsim.MaxTime)
	dr := rec.DropRate()
	if dr[1] < 0.3 || dr[1] > 0.7 {
		t.Fatalf("drop rate %v, want ~0.5", dr[1])
	}
	if got := rec.BenignDropPercent(); got < 30 || got > 70 {
		t.Fatalf("benign drop %% = %v", got)
	}
	if rec.MaliciousDropPercent() != 0 {
		t.Fatal("no malicious traffic offered")
	}
}

func TestRecoveryTime(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(50_000), 10e6, rec)
	// Benign at 8 Mbps throughout; attack squeezes it during [3s, 6s).
	Replay(eng, traffic.Merge(
		cbr(0, 10*eventsim.Second, 8e6, packet.Benign, 1),
		cbr(3*eventsim.Second, 6*eventsim.Second, 80e6, packet.Malicious, 5),
	), port)
	eng.RunUntil(eventsim.MaxTime)
	rt := rec.RecoveryTime(3*eventsim.Second, 0.9)
	if rt < 0 {
		t.Fatal("benign traffic never recovered")
	}
	// FIFO with a 10x attack: recovery only after the attack ends (6 s).
	if rt < 6*eventsim.Second {
		t.Fatalf("recovery at %v, expected after attack end", rt)
	}
	if rec.RecoveryTime(0, 0.9) != -1 {
		t.Fatal("no pre-attack baseline should yield -1")
	}
}

func TestRecorderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder(0)
}

func TestPortValidation(t *testing.T) {
	eng := eventsim.New()
	for _, f := range []func(){
		func() { NewPort(eng, nil, 1e6, nil) },
		func() { NewPort(eng, queue.NewFIFO(1000), 0, nil) },
		func() { p := NewPort(eng, queue.NewFIFO(1000), 1e6, nil); p.AddIngress(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestReplayWithPriorityQdiscRecordsDrops(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	pq := queue.NewPriority(2, 25_000, func(_ eventsim.Time, p *packet.Packet) int {
		if p.Label == packet.Malicious {
			return 1
		}
		return 0
	})
	port := NewPort(eng, pq, 10e6, rec)
	Replay(eng, traffic.Merge(
		cbr(0, 3*eventsim.Second, 8e6, packet.Benign, 1),
		cbr(0, 3*eventsim.Second, 40e6, packet.Malicious, 5),
	), port)
	eng.RunUntil(eventsim.MaxTime)
	// Strict priority: benign (queue 0) should barely drop, attack
	// (queue 1) should absorb nearly all loss.
	if rec.BenignDropPercent() > 5 {
		t.Fatalf("benign drop %% = %v under priority scheduling", rec.BenignDropPercent())
	}
	if rec.MaliciousDropPercent() < 50 {
		t.Fatalf("malicious drop %% = %v, attack should be squeezed", rec.MaliciousDropPercent())
	}
}

func BenchmarkReplayFIFO(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := eventsim.New()
		rec := NewRecorder(eventsim.Second)
		port := NewPort(eng, queue.NewFIFO(100_000), 10e6, rec)
		Replay(eng, cbr(0, eventsim.Second, 20e6, packet.Benign, 1), port)
		eng.RunUntil(eventsim.MaxTime)
	}
}

// TestReplayFIFOSteadyStateAllocFree is BenchmarkReplayFIFO's allocation
// gate. Offered at twice the line rate, about every other arrival runs
// inline between two departures and the full FIFO tail-drops; once the
// pool, the queue and the engine's arena are warm, a pooled replay
// through the recorded port allocates nothing at all.
func TestReplayFIFOSteadyStateAllocFree(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(60 * eventsim.Second) // one bin for the whole run
	port := NewPort(eng, queue.NewFIFO(100_000), 10e6, rec)
	src := cbr(0, 10*eventsim.Second, 20e6, packet.Benign, 1)
	pool := packet.NewPool()
	traffic.AttachPool(src, pool)
	port.SetPool(pool)
	Replay(eng, src, port)
	eng.RunUntil(eventsim.Second)
	arrived, dropped := rec.ArrivedBenign(), rec.DroppedBenign()
	// One measured run (after AllocsPerRun's warm-up run) of 500 ms, so
	// the count is exact rather than an average rounded down.
	allocs := testing.AllocsPerRun(1, func() { eng.RunUntil(eng.Now() + 500*eventsim.Millisecond) })
	n := rec.ArrivedBenign() - arrived
	if allocs != 0 {
		t.Fatalf("500 ms of replay allocates %.0f times", allocs)
	}
	if n < 4000 || rec.DroppedBenign()-dropped < n/4 {
		t.Fatalf("replay did not run as designed: %d arrivals, %d drops", n, rec.DroppedBenign()-dropped)
	}
}

func TestFIFONeverReorders(t *testing.T) {
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	port := NewPort(eng, queue.NewFIFO(50_000), 10e6, rec)
	Replay(eng, traffic.Merge(
		cbr(0, 3*eventsim.Second, 8e6, packet.Benign, 1),
		cbr(0, 3*eventsim.Second, 12e6, packet.Malicious, 5),
	), port)
	eng.RunUntil(4 * eventsim.Second)
	if rec.Reordered() != 0 {
		t.Fatalf("FIFO reordered %d packets", rec.Reordered())
	}
}

func TestPriorityChangeReordersAcrossUpdate(t *testing.T) {
	// A flow whose queue changes mid-stream can be overtaken: packets
	// buffered in the old (low-priority) queue drain after packets
	// enqueued later into the new (high-priority) queue.
	eng := eventsim.New()
	rec := NewRecorder(eventsim.Second)
	prio := 1
	pq := queue.NewPriority(2, 1_000_000, func(_ eventsim.Time, p *packet.Packet) int {
		return prio
	})
	port := NewPort(eng, pq, 1e6, rec)
	// Burst 100 packets into queue 1, switch the flow to queue 0, burst
	// again: the second burst drains first.
	f := cbr(0, eventsim.Second/10, 4e6, packet.Benign, 1)
	Replay(eng, f, port)
	eng.At(eventsim.Second/10+1, func(eventsim.Time) { prio = 0 })
	Replay(eng, cbr(eventsim.Second/5, eventsim.Second/5+eventsim.Second/10, 4e6, packet.Benign, 1), port)
	eng.RunUntil(5 * eventsim.Second)
	if rec.Reordered() == 0 {
		t.Fatal("expected reordering across the priority update")
	}
}

func TestChainForwardsWithDelay(t *testing.T) {
	eng := eventsim.New()
	recA := NewRecorder(eventsim.Second)
	recB := NewRecorder(eventsim.Second)
	a := NewPort(eng, queue.NewFIFO(100_000), 10e6, recA)
	b := NewPort(eng, queue.NewFIFO(100_000), 10e6, recB)
	Chain(eng, a, b, 5*eventsim.Millisecond)
	Replay(eng, cbr(0, eventsim.Second, 5e6, packet.Benign, 1), a)
	eng.RunUntil(2 * eventsim.Second)
	if recB.ArrivedBenign() != recA.DeliveredBenignPkts() {
		t.Fatalf("chain lost packets: %d arrived at B of %d delivered by A",
			recB.ArrivedBenign(), recA.DeliveredBenignPkts())
	}
	if recB.DeliveredBenignPkts() == 0 {
		t.Fatal("nothing delivered end-to-end")
	}
}

func TestChainPreservesExistingDeliveredHook(t *testing.T) {
	eng := eventsim.New()
	a := NewPort(eng, queue.NewFIFO(100_000), 10e6, nil)
	b := NewPort(eng, queue.NewFIFO(100_000), 10e6, nil)
	hookCalls := 0
	a.Delivered = func(eventsim.Time, *packet.Packet) { hookCalls++ }
	Chain(eng, a, b, 0)
	Replay(eng, cbr(0, eventsim.Second/10, 1e6, packet.Benign, 1), a)
	eng.RunUntil(eventsim.Second)
	if hookCalls == 0 {
		t.Fatal("chaining clobbered the existing Delivered hook")
	}
}

func TestChainValidation(t *testing.T) {
	eng := eventsim.New()
	a := NewPort(eng, queue.NewFIFO(1000), 1e6, nil)
	b := NewPort(eng, queue.NewFIFO(1000), 1e6, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Chain(eng, a, b, -1)
}
