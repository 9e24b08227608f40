package eventsim

import (
	"math/rand"
	"testing"
)

// TestStaleHandleAfterSlotReuse is the generation-stamp regression
// test: cancelling a handle whose event already fired, after the slot
// was reused by a new event, must not touch the new event.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	e := New()
	stale := e.At(10, func(Time) {})
	e.RunUntil(MaxTime) // fires the event; its slot joins the free list

	// The next schedule reuses the slot (LIFO free list) with a bumped
	// generation.
	fired := false
	fresh := e.At(20, func(Time) { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("expected slot reuse: stale slot %d, fresh slot %d", stale.slot, fresh.slot)
	}
	if fresh.gen == stale.gen {
		t.Fatalf("generation did not advance on reuse: %d", fresh.gen)
	}

	e.Cancel(stale) // must be a no-op against the reused slot
	e.RunUntil(MaxTime)
	if !fired {
		t.Fatal("cancelling a stale handle killed the slot's new event")
	}
}

// TestStaleHandleAfterCancelReuse is the same scenario with the first
// incarnation cancelled rather than fired.
func TestStaleHandleAfterCancelReuse(t *testing.T) {
	e := New()
	stale := e.At(10, func(Time) { t.Fatal("cancelled event fired") })
	e.Cancel(stale)

	fired := false
	fresh := e.At(10, func(Time) { fired = true })
	if fresh.slot != stale.slot {
		t.Fatalf("expected slot reuse: stale slot %d, fresh slot %d", stale.slot, fresh.slot)
	}
	e.Cancel(stale) // stale again: no-op
	e.RunUntil(MaxTime)
	if !fired {
		t.Fatal("stale cancel killed the reused slot's event")
	}
}

// TestZeroHandleCancel: the zero Handle must never match a live slot,
// including slot 0 in its first generation.
func TestZeroHandleCancel(t *testing.T) {
	e := New()
	fired := false
	e.At(5, func(Time) { fired = true })
	e.Cancel(Handle{})
	e.RunUntil(MaxTime)
	if !fired {
		t.Fatal("zero handle cancelled slot 0's live event")
	}
}

// TestCancelRunStress interleaves scheduling, cancellation (including
// repeated and stale cancels), and partial runs, checking that exactly
// the non-cancelled events fire, each exactly once, in timestamp order.
// Run under -race it also guards the engine against accidental internal
// sharing.
func TestCancelRunStress(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	e := New()
	fired := map[int]int{}
	var handles []Handle
	var cancelled []bool
	var deadlines []Time

	next := 0
	scheduleOne := func() {
		id := next
		next++
		at := e.Now() + Time(r.Int63n(1000))
		h := e.At(at, func(Time) { fired[id]++ })
		handles = append(handles, h)
		cancelled = append(cancelled, false)
		deadlines = append(deadlines, at)
	}

	for round := 0; round < 200; round++ {
		for i := 0; i < 20; i++ {
			scheduleOne()
		}
		// Cancel a random subset, some twice, some already-fired.
		for i := 0; i < 15; i++ {
			j := r.Intn(len(handles))
			e.Cancel(handles[j])
			if deadlines[j] > e.Now() {
				cancelled[j] = true
			}
			// cancelled[j] stays false if the event already fired; the
			// cancel must then be a no-op.
		}
		e.RunUntil(e.Now() + Time(r.Int63n(500)))
	}
	e.RunUntil(MaxTime)

	for id := 0; id < next; id++ {
		got := fired[id]
		want := 1
		if cancelled[id] {
			want = 0
		}
		if got != want {
			t.Fatalf("event %d fired %d times, want %d (cancelled=%v)", id, got, want, cancelled[id])
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after Run", e.Pending())
	}
}

// TestScheduleArgOrdering: ScheduleArg events interleave with At events
// in strict (at, seq) order.
func TestScheduleArgOrdering(t *testing.T) {
	e := New()
	var got []int
	e.ScheduleArg(10, func(_ Time, arg any) { got = append(got, arg.(int)) }, 1)
	e.At(10, func(Time) { got = append(got, 2) })
	e.AfterArg(10, func(_ Time, arg any) { got = append(got, arg.(int)) }, 3)
	e.At(5, func(Time) { got = append(got, 0) })
	e.RunUntil(MaxTime)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestScheduleArgZeroAlloc is the regression gate on the scheduler fast
// path: scheduling with a package-level ArgFunc and a pointer argument,
// then firing, must not allocate in steady state, and neither must At
// with a closure that captures nothing. It holds BenchmarkEngineSchedule
// and BenchmarkEngineScheduleClosure to their 0 allocs/op.
func TestScheduleArgZeroAlloc(t *testing.T) {
	e := New()
	// Warm the arenas so amortized growth is excluded.
	for i := 0; i < 64; i++ {
		e.ScheduleArg(e.Now(), nopArg, e)
	}
	e.RunUntil(MaxTime)
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(e.Now(), nopArg, e)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("ScheduleArg+Step allocates %v per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		h := e.ScheduleArg(e.Now()+100, nopArg, e)
		e.Cancel(h)
	})
	if allocs != 0 {
		t.Fatalf("ScheduleArg+Cancel allocates %v per op, want 0", allocs)
	}
	fn := func(Time) {}
	allocs = testing.AllocsPerRun(1000, func() {
		e.At(e.Now(), fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocates %v per op, want 0", allocs)
	}
}

func nopArg(Time, any) {}

func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(e.Now(), nopArg, e)
		e.Step()
	}
}

// BenchmarkEngineScheduleDepth measures scheduling into a populated
// queue (heap sifts at realistic depth).
func BenchmarkEngineScheduleDepth(b *testing.B) {
	e := New()
	for i := 0; i < 4096; i++ {
		e.ScheduleArg(Time(i)*1000, nopArg, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(e.Now()+Time(i%4096), nopArg, e)
		e.Step()
	}
}

func BenchmarkEngineScheduleClosure(b *testing.B) {
	e := New()
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now(), fn)
		e.Step()
	}
}
