package faults

import (
	"testing"

	"accturbo/internal/core"
	"accturbo/internal/eventsim"
	"accturbo/internal/netsim"
	"accturbo/internal/packet"
	"accturbo/internal/queue"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := "flap:first=12s,down=250ms,period=20s,count=4;drop:p=0.01;dup:p=0.005;corrupt:p=0.01;stall:at=15s,for=3s;" +
		"stream:corrupt=4096,reset=32768,delay=8192,for=5ms"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", in, err)
	}
	if len(spec.Flaps) != 1 || len(spec.Stalls) != 1 {
		t.Fatalf("got %d flaps, %d stalls, want 1 each", len(spec.Flaps), len(spec.Stalls))
	}
	f := spec.Flaps[0]
	if f.First != 12*eventsim.Second || f.Len != 250*eventsim.Millisecond ||
		f.Period != 20*eventsim.Second || f.Count != 4 {
		t.Fatalf("flap parsed wrong: %+v", f)
	}
	if spec.DropP != 0.01 || spec.DupP != 0.005 || spec.CorruptP != 0.01 {
		t.Fatalf("probabilities parsed wrong: %+v", spec)
	}
	if spec.Stalls[0].At != 15*eventsim.Second || spec.Stalls[0].For != 3*eventsim.Second {
		t.Fatalf("stall parsed wrong: %+v", spec.Stalls[0])
	}
	if spec.Stream != (StreamSpec{CorruptEvery: 4096, ResetEvery: 32768, DelayEvery: 8192, DelayFor: 5 * eventsim.Millisecond}) {
		t.Fatalf("stream parsed wrong: %+v", spec.Stream)
	}
	// String() re-renders to a parseable, equivalent spec.
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", spec.String(), err)
	}
	if again.String() != spec.String() {
		t.Fatalf("round trip changed spec: %q -> %q", spec.String(), again.String())
	}
}

func TestParseSpecEmpty(t *testing.T) {
	spec, err := ParseSpec("")
	if err != nil {
		t.Fatalf("ParseSpec(\"\"): %v", err)
	}
	if !spec.Empty() {
		t.Fatalf("empty string parsed to non-empty spec: %+v", spec)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"explode:now",                    // unknown clause
		"drop:p=1.5",                     // probability out of range
		"dup:p=NaN",                      // not a probability at all
		"drop:q=0.5",                     // unknown key
		"flap:down=abc",                  // bad duration
		"flap:down=0s",                   // down must be positive
		"flap:down=2s,period=1s,count=3", // period must exceed down
		"stall:at=1s",                    // for must be positive
		"drop:p",                         // malformed pair
		"sinkfail:p=0.1",                 // not a clause: nothing to inject it into
		"stream:corrupt=-3",              // a byte gap is at least 1
		"stream:delay=10",                // delay needs for: no hidden default
		"stream:delay=10,for=0s",         // a stall of nothing
		"stream:delay=10,for=-5ms",       // negative duration
		"stream:for=5ms",                 // for without a delay
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}

func testPacket(n int) *packet.Packet {
	return &packet.Packet{
		SrcIP:   packet.V4Addr{10, 0, byte(n >> 8), byte(n)},
		DstIP:   packet.V4Addr{192, 168, 0, 1},
		Length:  500,
		TTL:     64,
		SrcPort: uint16(1024 + n%1000),
		DstPort: 80,
	}
}

// TestMangleDeterministic: same seed and spec produce the identical
// per-packet fault sequence; the whole point of seeded chaos.
func TestMangleDeterministic(t *testing.T) {
	spec := Spec{DropP: 0.1, DupP: 0.05, CorruptP: 0.1}
	a, b := New(7, spec), New(7, spec)
	for i := 0; i < 10000; i++ {
		pa, pb := testPacket(i), testPacket(i)
		dropA, dupA := a.Mangle(pa)
		dropB, dupB := b.Mangle(pb)
		if dropA != dropB || dupA != dupB || *pa != *pb {
			t.Fatalf("packet %d diverged: drop %v/%v dup %v/%v", i, dropA, dropB, dupA, dupB)
		}
	}
	if a.PacketsDropped.Value() == 0 || a.PacketsCorrupted.Value() == 0 || a.PacketsDuplicated.Value() == 0 {
		t.Fatalf("expected all fault classes to fire over 10k packets: drop=%d corrupt=%d dup=%d",
			a.PacketsDropped.Value(), a.PacketsCorrupted.Value(), a.PacketsDuplicated.Value())
	}
	if a.PacketsDropped.Value() != b.PacketsDropped.Value() {
		t.Fatalf("drop counters diverged: %d vs %d", a.PacketsDropped.Value(), b.PacketsDropped.Value())
	}
}

// TestFlapLinkDropsAndRecovers: packets arriving while the link is
// down drop with DropLinkDown; the queue drains after recovery.
func TestFlapLinkDropsAndRecovers(t *testing.T) {
	eng := eventsim.New()
	rec := netsim.NewRecorder(eventsim.Second)
	port := netsim.NewPort(eng, queue.NewFIFO(1<<20), 1e9, rec)
	inj := New(1, Spec{Flaps: []FlapSpec{{First: 1 * eventsim.Second, Len: 1 * eventsim.Second, Count: 1}}})
	inj.FlapLinks(eng, port)

	var delivered int
	port.Delivered = func(eventsim.Time, *packet.Packet) { delivered++ }
	// One packet every 100 ms for 3 s: 10 before the flap, 10 during, 10 after.
	for i := 0; i < 30; i++ {
		p := testPacket(i)
		eng.At(eventsim.Time(i)*100*eventsim.Millisecond, func(now eventsim.Time) {
			port.Inject(now, p)
		})
	}
	eng.RunUntil(eventsim.MaxTime)

	if downDrops, tailDrops := rec.DroppedFor(queue.DropLinkDown), rec.DroppedFor(queue.DropTail); downDrops != 10 || tailDrops != 0 {
		t.Fatalf("link-down drops = %d, tail drops = %d, want 10 and 0", downDrops, tailDrops)
	}
	if delivered != 20 {
		t.Fatalf("delivered = %d, want 20 (before + after the flap)", delivered)
	}
	if inj.LinkTransitions.Value() != 2 {
		t.Fatalf("link transitions = %d, want 2", inj.LinkTransitions.Value())
	}
}

// TestInterposerDuplicates: a DupP=1 interposer injects exactly one
// extra copy per packet (duplicates are not re-duplicated), and the
// copies are distinct packets.
func TestInterposerDuplicates(t *testing.T) {
	eng := eventsim.New()
	port := netsim.NewPort(eng, queue.NewFIFO(1<<20), 1e9, nil)
	inj := New(3, Spec{DupP: 1})
	inj.AttachInterposer(eng, port)

	seen := make(map[*packet.Packet]int)
	port.Delivered = func(_ eventsim.Time, p *packet.Packet) { seen[p]++ }
	for i := 0; i < 5; i++ {
		p := testPacket(i)
		eng.At(eventsim.Time(i)*eventsim.Millisecond, func(now eventsim.Time) {
			port.Inject(now, p)
		})
	}
	eng.RunUntil(eventsim.MaxTime)

	if len(seen) != 10 {
		t.Fatalf("delivered %d distinct packets, want 10 (5 originals + 5 copies)", len(seen))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("packet %p delivered %d times", p, n)
		}
	}
	if inj.PacketsDuplicated.Value() != 5 {
		t.Fatalf("duplicated = %d, want 5", inj.PacketsDuplicated.Value())
	}
}

// TestStallClock: Every ticks inside the window are suppressed, After
// callbacks due inside it are delayed to the window's end, and Now is
// transparent.
func TestStallClock(t *testing.T) {
	eng := eventsim.New()
	inj := New(5, Spec{Stalls: []StallSpec{{At: 3 * eventsim.Second, For: 2 * eventsim.Second}}})
	clk := inj.ClockWrapper()(core.SimClock{Eng: eng})

	var ticks []eventsim.Time
	clk.Every(eventsim.Second, func(now eventsim.Time) { ticks = append(ticks, now) })
	var firedAt eventsim.Time
	eng.At(2500*eventsim.Millisecond, func(now eventsim.Time) {
		// Due at 3.5s — inside the window — so it must slide to 5s.
		clk.After(eventsim.Second, func(at eventsim.Time) { firedAt = at })
	})
	eng.RunUntil(8 * eventsim.Second)

	want := []eventsim.Time{1 * eventsim.Second, 2 * eventsim.Second,
		5 * eventsim.Second, 6 * eventsim.Second, 7 * eventsim.Second, 8 * eventsim.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v (all: %v)", i, ticks[i], want[i], ticks)
		}
	}
	if firedAt != 5*eventsim.Second {
		t.Fatalf("delayed After fired at %v, want 5s", firedAt)
	}
	if inj.PollsSuppressed.Value() != 2 {
		t.Fatalf("polls suppressed = %d, want 2 (ticks at 3s and 4s)", inj.PollsSuppressed.Value())
	}
	if inj.CallbacksDelayed.Value() != 1 {
		t.Fatalf("callbacks delayed = %d, want 1", inj.CallbacksDelayed.Value())
	}
}

// TestClockWrapperNilWithoutStalls: an injector without stall windows
// contributes no clock wrapper, so Config.WrapClock stays nil and the
// control plane runs on the raw clock.
func TestClockWrapperNilWithoutStalls(t *testing.T) {
	if New(1, Spec{DropP: 0.5}).ClockWrapper() != nil {
		t.Fatal("ClockWrapper must be nil when the spec has no stalls")
	}
}
