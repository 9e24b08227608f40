package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// quickConfig fixes the generator of a quick.Check, so a failing input
// is the same on every run.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func TestTimeConversions(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d", Second)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v", got)
	}
	if got := FromDuration(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromDuration = %v", got)
	}
	if (1500 * Millisecond).Duration() != 1500*time.Millisecond {
		t.Errorf("Duration conversion wrong")
	}
	if (1 * Second).String() != "1.000000s" {
		t.Errorf("String = %q", (1 * Second).String())
	}
}

// TestPulsesWindows: window i is [First+i·Period, +Len), a window holds
// its start and not its end, the gaps and the time after the last
// window are outside, and a schedule of Count 0 holds nothing.
func TestPulsesWindows(t *testing.T) {
	p := Pulses{First: 10 * Second, Len: 10 * Second, Period: 20 * Second, Count: 4}
	if s, e := p.Window(0); s != 10*Second || e != 20*Second {
		t.Errorf("Window(0) = [%v, %v), want [10s, 20s)", s, e)
	}
	if s, e := p.Window(3); s != 70*Second || e != 80*Second {
		t.Errorf("Window(3) = [%v, %v), want [70s, 80s)", s, e)
	}
	for _, c := range []struct {
		at   Time
		want bool
	}{
		{0, false}, {10*Second - 1, false}, {10 * Second, true}, {20*Second - 1, true}, {20 * Second, false},
		{30 * Second, true}, {70 * Second, true}, {80*Second - 1, true}, {80 * Second, false},
		{90 * Second, false}, {95 * Second, false},
	} {
		if got := p.In(c.at); got != c.want {
			t.Errorf("In(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	p.Count = 0
	if p.In(10 * Second) {
		t.Error("a schedule of no windows holds 10s")
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := New()
	var got []Time
	e.At(30, func(now Time) { got = append(got, now) })
	e.At(10, func(now Time) { got = append(got, now) })
	e.At(20, func(now Time) { got = append(got, now) })
	e.RunUntil(MaxTime)
	want := []Time{10, 20, 30}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v after run", e.Now())
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d", e.Processed)
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { got = append(got, i) })
	}
	e.RunUntil(MaxTime)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New()
	var got []Time
	e.After(10, func(now Time) {
		got = append(got, now)
		e.After(5, func(now Time) { got = append(got, now) })
	})
	e.RunUntil(MaxTime)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.At(10, func(Time) { fired++ })
	e.At(20, func(Time) { fired++ })
	e.At(30, func(Time) { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.RunUntil(25) // no events in window; clock still advances
	if e.Now() != 25 || fired != 2 {
		t.Fatalf("Now = %v fired = %d", e.Now(), fired)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	h := e.At(10, func(Time) { fired = true })
	e.Cancel(h)
	e.Cancel(h) // double-cancel is a no-op
	e.RunUntil(MaxTime)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancel after firing is a no-op.
	h2 := e.At(20, func(Time) {})
	e.RunUntil(MaxTime)
	e.Cancel(h2)
}

func TestEvery(t *testing.T) {
	e := New()
	var at []Time
	stop := e.Every(10, func(now Time) {
		at = append(at, now)
		if len(at) == 3 {
			// stop from inside the callback
		}
	})
	e.RunUntil(35)
	stop()
	e.RunUntil(100)
	if len(at) != 3 || at[0] != 10 || at[1] != 20 || at[2] != 30 {
		t.Fatalf("ticks at %v", at)
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	e := New()
	n := 0
	var stop func()
	stop = e.Every(10, func(now Time) {
		n++
		if n == 2 {
			stop()
		}
	})
	e.RunUntil(MaxTime)
	if n != 2 {
		t.Fatalf("ticked %d times, want 2", n)
	}
}

func TestStep(t *testing.T) {
	e := New()
	e.At(5, func(Time) {})
	e.At(7, func(Time) {})
	if !e.Step() || e.Now() != 5 {
		t.Fatalf("first step: now=%v", e.Now())
	}
	if !e.Step() || e.Now() != 7 {
		t.Fatalf("second step: now=%v", e.Now())
	}
	if e.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(10, func(Time) {})
	e.RunUntil(MaxTime)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.After(-1, func(Time) {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.At(1, nil)
}

func TestBadIntervalPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Every(0, func(Time) {})
}

// Property: for any batch of random timestamps, events fire in
// non-decreasing time order and the engine visits all of them.
func TestQuickOrdering(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%100 + 1
		e := New()
		times := make([]Time, n)
		var fired []Time
		for i := range times {
			times[i] = Time(r.Int63n(1_000_000))
			tt := times[i]
			e.At(tt, func(now Time) { fired = append(fired, now) })
		}
		e.RunUntil(MaxTime)
		if len(fired) != n {
			return false
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range fired {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset leaves exactly the others firing.
func TestQuickCancelSubset(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New()
		n := r.Intn(50) + 2
		fired := make([]bool, n)
		handles := make([]Handle, n)
		for i := 0; i < n; i++ {
			i := i
			handles[i] = e.At(Time(r.Int63n(1000)), func(Time) { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				cancelled[i] = true
				e.Cancel(handles[i])
			}
		}
		e.RunUntil(MaxTime)
		for i := 0; i < n; i++ {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), func(Time) {})
		}
		e.RunUntil(MaxTime)
	}
}
