package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

func rankByPort(_ eventsim.Time, p *packet.Packet) int64 { return int64(p.DstPort) }

func rankedPkt(rank uint16, size int) *packet.Packet {
	p := pkt(size)
	p.DstPort = rank
	return p
}

func TestSPPIFOSeparatesTwoRanks(t *testing.T) {
	s := NewSPPIFO(2, 1<<20, rankByPort)
	// Interleave high (9) and low (1) ranks; after adaptation, lows
	// should dequeue before highs that arrived earlier.
	for i := 0; i < 50; i++ {
		s.Enqueue(0, rankedPkt(9, 100))
		s.Enqueue(0, rankedPkt(1, 100))
	}
	lowsBeforeHighs := 0
	seenHigh := false
	for {
		p := s.Dequeue(0)
		if p == nil {
			break
		}
		if p.DstPort == 9 {
			seenHigh = true
		} else if !seenHigh {
			lowsBeforeHighs++
		}
	}
	// A plain FIFO would yield lowsBeforeHighs ~= 1; SP-PIFO should
	// front-load most of the low-rank packets.
	if lowsBeforeHighs < 25 {
		t.Fatalf("only %d low-rank packets dequeued before any high-rank", lowsBeforeHighs)
	}
	if s.PushUps == 0 {
		t.Fatal("no push-up adaptations recorded")
	}
}

func TestSPPIFOPushDown(t *testing.T) {
	s := NewSPPIFO(2, 1<<20, rankByPort)
	// Drive both bounds up, then send a lower-rank packet: push-down
	// must fire and the bounds must drop.
	s.Enqueue(0, rankedPkt(200, 100)) // bottom queue bound -> 200
	s.Enqueue(0, rankedPkt(100, 100)) // top queue bound -> 100
	before := append([]int64(nil), s.bounds...)
	s.Enqueue(0, rankedPkt(5, 100)) // undershoots the top bound
	if s.PushDowns == 0 {
		t.Fatalf("push-down did not fire (bounds %v -> %v)", before, s.bounds)
	}
	after := s.bounds
	if after[0] >= before[0] {
		t.Fatalf("bounds did not decrease: %v -> %v", before, after)
	}
}

func TestSPPIFOFewerInversionsThanFIFO(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ranks := make([]uint16, 2000)
	for i := range ranks {
		ranks[i] = uint16(r.Intn(100))
	}

	inversions := func(q Qdisc) uint64 {
		// Enqueue in bursts of 20, dequeue 10, to keep queues occupied.
		var out []uint16
		i := 0
		for i < len(ranks) {
			for j := 0; j < 20 && i < len(ranks); j++ {
				q.Enqueue(0, rankedPkt(ranks[i], 100))
				i++
			}
			for j := 0; j < 10; j++ {
				if p := q.Dequeue(0); p != nil {
					out = append(out, p.DstPort)
				}
			}
		}
		for {
			p := q.Dequeue(0)
			if p == nil {
				break
			}
			out = append(out, p.DstPort)
		}
		var inv uint64
		max := out[0]
		for _, v := range out[1:] {
			if v < max {
				inv++
			}
			if v > max {
				max = v
			}
		}
		return inv
	}

	fifoInv := inversions(NewFIFO(1 << 20))
	spInv := inversions(NewSPPIFO(8, 1<<20, rankByPort))
	if spInv >= fifoInv {
		t.Fatalf("SP-PIFO inversions %d !< FIFO inversions %d", spInv, fifoInv)
	}
	// PIFO is the zero-inversion reference under this access pattern.
	pifoInv := inversions(NewPIFO(1<<20, rankByPort))
	if pifoInv > spInv {
		t.Fatalf("PIFO (%d) must not invert more than SP-PIFO (%d)", pifoInv, spInv)
	}
}

func TestSPPIFOValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSPPIFO(0, 100, rankByPort) },
		func() { NewSPPIFO(2, 100, nil) },
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

func TestAIFOAdmitsLowRanksUnderPressure(t *testing.T) {
	a := NewAIFO(10_000, 64, 0.1, rankByPort)
	// Fill most of the queue with mid-rank packets.
	for i := 0; i < 60; i++ {
		a.Enqueue(0, rankedPkt(50, 150))
	}
	// Now the queue is ~90% full: a high-rank packet must be rejected,
	// a low-rank packet admitted.
	if res := a.Enqueue(0, rankedPkt(99, 150)); res == DropNone {
		t.Fatal("high-rank packet admitted into a nearly full queue")
	}
	if res := a.Enqueue(0, rankedPkt(0, 150)); res != DropNone {
		t.Fatalf("low-rank packet rejected: %v", res)
	}
	if a.AdmissionDrops == 0 {
		t.Fatal("admission drops not counted")
	}
}

func TestAIFOFIFOWhenEmpty(t *testing.T) {
	a := NewAIFO(100_000, 32, 0.1, rankByPort)
	// With an empty queue everything is admitted regardless of rank.
	for i := 0; i < 10; i++ {
		if res := a.Enqueue(0, rankedPkt(uint16(90+i), 100)); res != DropNone {
			t.Fatalf("packet %d rejected on an empty queue: %v", i, res)
		}
	}
	// And drains in FIFO order.
	for i := 0; i < 10; i++ {
		if p := a.Dequeue(0); p.DstPort != uint16(90+i) {
			t.Fatalf("AIFO reordered: got %d at %d", p.DstPort, i)
		}
	}
}

func TestAIFOValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewAIFO(100, 0, 0.1, rankByPort) },
		func() { NewAIFO(100, 8, 1.0, rankByPort) },
		func() { NewAIFO(100, 8, 0.1, nil) },
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

// Property: SP-PIFO conserves packets and bytes like any qdisc.
func TestQuickSPPIFOConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSPPIFO(4, 50_000, rankByPort)
		enq, deq, bytes := 0, 0, 0
		for i := 0; i < 500; i++ {
			if r.Intn(2) == 0 {
				size := 40 + r.Intn(1400)
				if s.Enqueue(0, rankedPkt(uint16(r.Intn(100)), size)) == DropNone {
					enq++
					bytes += size
				}
			} else if p := s.Dequeue(0); p != nil {
				deq++
				bytes -= p.Size()
			}
		}
		return s.Len() == enq-deq && s.Bytes() == bytes
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: AIFO never exceeds capacity and admission never rejects
// when the window says the rank is the best seen.
func TestQuickAIFOBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewAIFO(20_000, 32, 0.125, rankByPort)
		for i := 0; i < 400; i++ {
			a.Enqueue(0, rankedPkt(uint16(r.Intn(100)), 40+r.Intn(1400)))
			if a.Bytes() > 20_000 {
				return false
			}
			if r.Intn(3) == 0 {
				a.Dequeue(0)
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSPPIFO(b *testing.B) {
	s := NewSPPIFO(8, 1<<20, rankByPort)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Enqueue(0, rankedPkt(uint16(i%100), 500))
		s.Dequeue(0)
	}
}

func BenchmarkAIFO(b *testing.B) {
	a := NewAIFO(1<<20, 64, 0.1, rankByPort)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Enqueue(0, rankedPkt(uint16(i%100), 500))
		a.Dequeue(0)
	}
}
