package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// quickConfig fixes the generator of a quick.Check, so a failing input
// is the same on every run.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func pkt(size int) *packet.Packet {
	return &packet.Packet{
		SrcIP:    packet.V4(10, 0, 0, 1),
		DstIP:    packet.V4(10, 0, 0, 2),
		Length:   uint16(size),
		TTL:      64,
		Protocol: packet.ProtoUDP,
	}
}

func TestFIFOOrderAndAccounting(t *testing.T) {
	f := NewFIFO(10000)
	sizes := []int{100, 200, 300}
	for _, s := range sizes {
		if res := f.Enqueue(0, pkt(s)); res != DropNone {
			t.Fatalf("enqueue %d dropped: %v", s, res)
		}
	}
	if f.Len() != 3 || f.Bytes() != 600 {
		t.Fatalf("len=%d bytes=%d", f.Len(), f.Bytes())
	}
	for _, s := range sizes {
		p := f.Dequeue(0)
		if p == nil || p.Size() != s {
			t.Fatalf("dequeue got %v, want size %d", p, s)
		}
	}
	if f.Dequeue(0) != nil {
		t.Fatal("dequeue from empty should be nil")
	}
	if f.Bytes() != 0 || f.Len() != 0 {
		t.Fatalf("non-zero after drain: len=%d bytes=%d", f.Len(), f.Bytes())
	}
}

func TestFIFOTailDrop(t *testing.T) {
	f := NewFIFO(250)
	if f.Enqueue(0, pkt(200)) != DropNone {
		t.Fatal("first packet should fit")
	}
	if r := f.Enqueue(0, pkt(100)); r != DropTail {
		t.Fatalf("second packet answered %v, want a tail drop", r)
	}
	if f.Len() != 1 || f.Bytes() != 200 {
		t.Fatalf("a refused packet was queued: len=%d bytes=%d", f.Len(), f.Bytes())
	}
	// After draining, space frees up.
	f.Dequeue(0)
	if f.Enqueue(0, pkt(100)) != DropNone {
		t.Fatal("packet should fit after drain")
	}
}

func TestFIFOGrowsRing(t *testing.T) {
	f := NewFIFO(1 << 20)
	for i := 0; i < 1000; i++ {
		if f.Enqueue(0, pkt(100)) != DropNone {
			t.Fatalf("packet %d dropped", i)
		}
	}
	if f.Len() != 1000 {
		t.Fatalf("len = %d", f.Len())
	}
	for i := 0; i < 1000; i++ {
		if f.Dequeue(0) == nil {
			t.Fatalf("nil at %d", i)
		}
	}
}

func TestFIFOInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFIFO(0)
}

func TestREDBelowMinThresholdNeverDrops(t *testing.T) {
	r := NewRED(100_000, 1e9)
	drops := 0
	// Keep the instantaneous queue tiny: enqueue+dequeue alternately.
	for i := 0; i < 10_000; i++ {
		if r.Enqueue(eventsim.Time(i)*eventsim.Microsecond, pkt(500)) != DropNone {
			drops++
		}
		r.Dequeue(eventsim.Time(i) * eventsim.Microsecond)
	}
	if drops != 0 {
		t.Fatalf("RED dropped %d packets below min threshold", drops)
	}
}

func TestREDDropsUnderSustainedOverload(t *testing.T) {
	r := NewRED(100_000, 1e9)
	early := 0
	// Fill without draining: the average climbs past max threshold.
	for i := 0; i < 5000; i++ {
		if r.Enqueue(eventsim.Time(i), pkt(500)) == DropEarly {
			early++
		}
	}
	if early == 0 {
		t.Fatal("RED never early-dropped under overload")
	}
	if r.Bytes() > 100_000 {
		t.Fatalf("queue overflow: %d > %d", r.Bytes(), 100_000)
	}
	if r.avg < r.minTh {
		t.Fatalf("average %v did not climb", r.avg)
	}
}

func TestREDIdleDecay(t *testing.T) {
	r := NewRED(100_000, 1e9)
	for i := 0; i < 2000; i++ {
		r.Enqueue(eventsim.Time(i), pkt(500))
	}
	for r.Dequeue(eventsim.Time(3000)) != nil {
	}
	before := r.avg
	// One arrival after a long idle period: the average must collapse.
	r.Enqueue(10*eventsim.Second, pkt(500))
	if r.avg >= before/10 {
		t.Fatalf("idle decay too weak: before=%v after=%v", before, r.avg)
	}
}

func TestREDConfigValidation(t *testing.T) {
	// A capacity under 4 bytes leaves the 25 %..75 % thresholds empty.
	for _, capacity := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("capacity %d should panic", capacity)
				}
			}()
			NewRED(capacity, 1e9)
		}()
	}
}

func TestPriorityStrictOrdering(t *testing.T) {
	// Classify by destination port: port == queue index.
	pq := NewPriority(4, 10_000, func(_ eventsim.Time, p *packet.Packet) int {
		return int(p.DstPort)
	})
	mk := func(prio int, size int) *packet.Packet {
		q := pkt(size)
		q.DstPort = uint16(prio)
		return q
	}
	pq.Enqueue(0, mk(3, 100))
	pq.Enqueue(0, mk(1, 200))
	pq.Enqueue(0, mk(1, 300))
	pq.Enqueue(0, mk(0, 400))
	wantSizes := []int{400, 200, 300, 100} // queue 0 first, then FIFO within queue 1
	for i, want := range wantSizes {
		p := pq.Dequeue(0)
		if p == nil || p.Size() != want {
			t.Fatalf("dequeue %d: got %v, want size %d", i, p, want)
		}
	}
}

func TestPriorityClampsClassifier(t *testing.T) {
	pq := NewPriority(2, 10_000, func(_ eventsim.Time, p *packet.Packet) int {
		return int(p.DstPort) // may be out of range
	})
	a := pkt(100)
	a.DstPort = 50 // clamps to queue 1
	b := pkt(200)
	b.DstPort = 0
	if pq.Enqueue(0, a) != DropNone || pq.Enqueue(0, b) != DropNone {
		t.Fatal("enqueue failed")
	}
	if pq.queues[1].Len() != 1 || pq.queues[0].Len() != 1 {
		t.Fatalf("queue lens: %d %d", pq.queues[0].Len(), pq.queues[1].Len())
	}
	if got := pq.Dequeue(0); got.Size() != 200 {
		t.Fatalf("priority order violated: got size %d", got.Size())
	}
}

func TestPriorityPerQueueTailDrop(t *testing.T) {
	pq := NewPriority(2, 250, func(_ eventsim.Time, p *packet.Packet) int {
		return int(p.DstPort)
	})
	a := pkt(200)
	b := pkt(200) // overflows queue 0
	c := pkt(200)
	c.DstPort = 1 // fits in queue 1
	pq.Enqueue(0, a)
	if pq.Enqueue(0, b) != DropTail {
		t.Fatal("expected tail drop in queue 0")
	}
	if pq.Enqueue(0, c) != DropNone {
		t.Fatal("queue 1 should have space")
	}
	if pq.Len() != 2 || pq.Bytes() != 400 {
		t.Fatalf("len=%d bytes=%d", pq.Len(), pq.Bytes())
	}
	if pq.queues[0].Len() != 1 || pq.queues[1].Len() != 1 {
		t.Fatalf("queue lens: %d %d", pq.queues[0].Len(), pq.queues[1].Len())
	}
}

func TestPIFODequeuesInRankOrder(t *testing.T) {
	q := NewPIFO(1<<20, func(_ eventsim.Time, p *packet.Packet) int64 {
		return int64(p.DstPort)
	})
	ports := []uint16{5, 1, 3, 2, 4}
	for _, prt := range ports {
		p := pkt(100)
		p.DstPort = prt
		q.Enqueue(0, p)
	}
	for want := uint16(1); want <= 5; want++ {
		p := q.Dequeue(0)
		if p.DstPort != want {
			t.Fatalf("got rank %d, want %d", p.DstPort, want)
		}
	}
}

func TestPIFOTieBreakFIFO(t *testing.T) {
	q := NewPIFO(1<<20, func(eventsim.Time, *packet.Packet) int64 { return 7 })
	for i := 0; i < 5; i++ {
		p := pkt(100)
		p.ID = uint16(i)
		q.Enqueue(0, p)
	}
	for i := 0; i < 5; i++ {
		if p := q.Dequeue(0); p.ID != uint16(i) {
			t.Fatalf("tie-break violated at %d: got %d", i, p.ID)
		}
	}
}

func TestPIFOPushOut(t *testing.T) {
	q := NewPIFO(300, func(_ eventsim.Time, p *packet.Packet) int64 {
		return int64(p.DstPort)
	})
	var pushed []*packet.Packet
	q.OnPushOut(func(_ eventsim.Time, p *packet.Packet) { pushed = append(pushed, p) })
	bad := pkt(200)
	bad.DstPort = 9
	good := pkt(200)
	good.DstPort = 1
	q.Enqueue(0, bad)
	if res := q.Enqueue(0, good); res != DropNone {
		t.Fatalf("better packet should push out worse: %v", res)
	}
	if len(pushed) != 1 || pushed[0].DstPort != 9 {
		t.Fatalf("pushed = %v", pushed)
	}
	// A worse-or-equal packet tail-drops instead.
	worse := pkt(200)
	worse.DstPort = 2
	if res := q.Enqueue(0, worse); res != DropTail {
		t.Fatalf("worse packet should tail-drop: %v", res)
	}
}

// TestPIFOWorstCacheConsistency drives a random enqueue/dequeue mix and
// checks the cached worst-leaf index against a fresh scan after every
// operation: the cache must be bitwise-equivalent to the O(n) scan it
// replaces whenever it claims validity.
func TestPIFOWorstCacheConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	q := NewPIFO(20*100, func(_ eventsim.Time, p *packet.Packet) int64 {
		return int64(p.DstPort)
	})
	for op := 0; op < 5000; op++ {
		if r.Intn(3) < 2 {
			p := pkt(100)
			p.DstPort = uint16(r.Intn(50))
			q.Enqueue(0, p)
		} else {
			q.Dequeue(0)
		}
		if q.worstValid && len(q.h) > 0 && q.worstIdx != q.h.worstIndex() {
			t.Fatalf("op %d: cached worst %d, scan says %d", op, q.worstIdx, q.h.worstIndex())
		}
	}
}

// BenchmarkPIFOEnqueueFull measures enqueue at capacity — the
// sustained-overload regime where every arrival confronts the worst
// resident packet. The tail-drop case (arrival loses) is the hot path
// the worst-leaf cache turns from a per-enqueue leaf scan into O(1).
func BenchmarkPIFOEnqueueFull(b *testing.B) {
	mk := func(n int) *PIFO {
		q := NewPIFO(n*100, func(_ eventsim.Time, p *packet.Packet) int64 {
			return int64(p.DstPort)
		})
		for i := 0; i < n; i++ {
			p := pkt(100)
			p.DstPort = uint16(i % 1000)
			q.Enqueue(0, p)
		}
		return q
	}
	b.Run("taildrop", func(b *testing.B) {
		q := mk(4096)
		loser := pkt(100)
		loser.DstPort = 2000 // ranks worse than every resident packet
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if q.Enqueue(0, loser) != DropTail {
				b.Fatal("expected tail drop")
			}
		}
	})
	b.Run("pushout", func(b *testing.B) {
		// Every push-out strictly improves the resident set, so the
		// queue is periodically rebuilt (off the clock) to keep arrivals
		// winning.
		q := mk(4096)
		winner := pkt(100)
		winner.DstPort = 0 // beats every initial resident packet
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%1024 == 0 {
				b.StopTimer()
				q = mk(4096)
				b.StartTimer()
			}
			if q.Enqueue(0, winner) != DropNone {
				b.Fatal("expected push-out admit")
			}
		}
	})
}

func TestPIFOOversizePacket(t *testing.T) {
	q := NewPIFO(100, func(eventsim.Time, *packet.Packet) int64 { return 0 })
	if res := q.Enqueue(0, pkt(500)); res != DropTail {
		t.Fatalf("oversize packet: %v", res)
	}
}

func TestTokenBucketConformance(t *testing.T) {
	tb := NewTokenBucket(8000, 1000) // 1000 bytes/s, burst 1000 B
	if !tb.Allow(0, 1000) {
		t.Fatal("initial burst should be admitted")
	}
	if tb.Allow(0, 1) {
		t.Fatal("bucket should be empty")
	}
	// After 0.5 s, 500 bytes refilled.
	if !tb.Allow(eventsim.Second/2, 500) {
		t.Fatal("refill missing")
	}
	if tb.Allow(eventsim.Second/2, 1) {
		t.Fatal("over-admission after refill")
	}
	// Bucket caps at burst.
	if tb.refill(100 * eventsim.Second); tb.tokens != 1000 {
		t.Fatalf("tokens = %v, want capped at 1000", tb.tokens)
	}
}

func TestTokenBucketSetRate(t *testing.T) {
	tb := NewTokenBucket(8000, 100)
	tb.Allow(0, 100)
	tb.SetRate(80_000)                       // 10 KB/s
	if !tb.Allow(eventsim.Second/100, 100) { // 10ms * 10KB/s = 100B
		t.Fatal("new rate not applied")
	}
}

func TestTokenBucketMonotonicTime(t *testing.T) {
	tb := NewTokenBucket(8_000_000, 1000)
	tb.Allow(eventsim.Second, 1000)
	// A stale timestamp must not mint tokens.
	if tb.refill(eventsim.Second / 2); tb.tokens != 0 {
		t.Fatalf("stale timestamp minted %v tokens", tb.tokens)
	}
}

// Property: any interleaving of enqueues and dequeues keeps byte/packet
// accounting consistent and conservation holds: queued = accepted -
// dequeued, so an arrival answered with a drop is never held.
func TestQuickFIFOConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewFIFO(5000)
		enq, deq := 0, 0
		bytes := 0
		for i := 0; i < 500; i++ {
			if r.Intn(2) == 0 {
				size := 40 + r.Intn(1400)
				if q.Enqueue(0, pkt(size)) == DropNone {
					enq++
					bytes += size
				}
			} else if p := q.Dequeue(0); p != nil {
				deq++
				bytes -= p.Size()
			}
		}
		return q.Len() == enq-deq && q.Bytes() == bytes
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: PIFO never dequeues a rank lower than one it already
// emitted... (ranks are fixed per packet, so the output must be sorted)
// and byte accounting stays exact.
func TestQuickPIFOSortedOutput(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := NewPIFO(100_000, func(_ eventsim.Time, p *packet.Packet) int64 {
			return int64(p.DstPort)
		})
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			p := pkt(40 + r.Intn(500))
			p.DstPort = uint16(r.Intn(100))
			q.Enqueue(0, p)
		}
		last := int64(-1)
		for {
			p := q.Dequeue(0)
			if p == nil {
				break
			}
			if int64(p.DstPort) < last {
				return false
			}
			last = int64(p.DstPort)
		}
		return q.Bytes() == 0 && q.Len() == 0
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: a token bucket never admits more than burst + rate*t bytes
// over any horizon.
func TestQuickTokenBucketBound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rate := float64(1000+r.Intn(100_000)) * 8 // bits/s
		burst := 500 + r.Intn(5000)
		tb := NewTokenBucket(rate, burst)
		admitted := 0
		var now eventsim.Time
		for i := 0; i < 300; i++ {
			now += eventsim.Time(r.Int63n(int64(10 * eventsim.Millisecond)))
			size := 40 + r.Intn(1500)
			if tb.Allow(now, size) {
				admitted += size
			}
		}
		bound := float64(burst) + rate/8*now.Seconds() + 1 // +1 for float slack
		return float64(admitted) <= bound
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func TestDropReasonString(t *testing.T) {
	for r, want := range map[DropReason]string{
		DropNone: "none", DropTail: "tail", DropEarly: "early",
		DropPushOut: "push-out", DropPolicer: "policer", DropReason(42): "reason(42)",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), want)
		}
	}
}

func BenchmarkFIFOEnqueueDequeue(b *testing.B) {
	q := NewFIFO(1 << 20)
	p := pkt(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(0, p)
		q.Dequeue(0)
	}
}

func BenchmarkREDEnqueue(b *testing.B) {
	q := NewRED(1<<20, 1e9)
	p := pkt(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(eventsim.Time(i), p)
		if q.Len() > 500 {
			q.Dequeue(eventsim.Time(i))
		}
	}
}

func BenchmarkPIFO(b *testing.B) {
	q := NewPIFO(1<<20, func(_ eventsim.Time, p *packet.Packet) int64 { return int64(p.DstPort) })
	p := pkt(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.DstPort = uint16(i % 100)
		q.Enqueue(0, p)
		q.Dequeue(0)
	}
}

// Property: strict-priority dequeue never returns a packet while a
// higher-priority queue holds one.
func TestQuickPriorityStrictness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pq := NewPriority(4, 1<<20, func(_ eventsim.Time, p *packet.Packet) int {
			return int(p.DstPort)
		})
		for i := 0; i < 300; i++ {
			if r.Intn(3) != 0 {
				p := pkt(100)
				p.DstPort = uint16(r.Intn(4))
				pq.Enqueue(0, p)
			} else if p := pq.Dequeue(0); p != nil {
				for q := 0; q < int(p.DstPort); q++ {
					if pq.queues[q].Len() > 0 {
						return false // a higher-priority packet waited
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: SP-PIFO bounds stay sorted ascending after any workload
// (the invariant the push-up/push-down adaptation maintains).
func TestQuickSPPIFOBoundsSorted(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewSPPIFO(4, 1<<20, func(_ eventsim.Time, p *packet.Packet) int64 {
			return int64(p.DstPort)
		})
		for i := 0; i < 400; i++ {
			p := pkt(100)
			p.DstPort = uint16(r.Intn(1000))
			s.Enqueue(0, p)
			if r.Intn(2) == 0 {
				s.Dequeue(0)
			}
			b := s.bounds
			for j := 1; j < len(b); j++ {
				if b[j] < b[j-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}
