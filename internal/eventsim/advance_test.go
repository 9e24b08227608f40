package eventsim

import "testing"

// TestAdvanceRunsTheNextEventInline: inside RunUntil, a time strictly
// before the earliest pending event and within the deadline moves the
// clock and counts an event, and leaves the queue alone.
func TestAdvanceRunsTheNextEventInline(t *testing.T) {
	e := New()
	var ok bool
	var now Time
	var processed uint64
	e.At(10, func(Time) {
		ok = e.Advance(15)
		now, processed = e.Now(), e.Processed
	})
	e.At(20, func(Time) {})
	e.RunUntil(100)
	if !ok || now != 15 || processed != 2 {
		t.Fatalf("Advance(15) = %v, clock %v, Processed %d; want true, 15, 2", ok, now, processed)
	}
	if e.Processed != 3 || e.Now() != 100 {
		t.Fatalf("after the run: Processed %d, Now %v; want 3, 100", e.Processed, e.Now())
	}
	// With nothing pending, the deadline itself is the last inline time.
	e = New()
	e.At(10, func(Time) { ok = e.Advance(100) })
	e.RunUntil(100)
	if !ok || e.Processed != 2 {
		t.Fatalf("Advance(deadline) on an empty queue = %v, Processed %d; want true, 2", ok, e.Processed)
	}
}

// TestAdvanceRefuses: every time Advance must not run inline leaves the
// clock, Processed and the queue as they were.
func TestAdvanceRefuses(t *testing.T) {
	cases := []struct {
		name    string
		pending bool // an event at 20 is queued
		at      Time // relative to the calling event's time, 10
	}{
		{"at the earliest pending time", true, 10},
		{"after the earliest pending time", true, 15},
		{"past the deadline", false, 91},
		{"before now", false, -1},
	}
	for _, c := range cases {
		e := New()
		var ok bool
		e.At(10, func(now Time) {
			pending := e.Pending()
			ok = e.Advance(now + c.at)
			if e.Now() != now || e.Processed != 1 || e.Pending() != pending {
				t.Errorf("%s: refused Advance moved state: Now %v, Processed %d, Pending %d", c.name, e.Now(), e.Processed, e.Pending())
			}
		})
		if c.pending {
			e.At(20, func(Time) {})
		}
		e.RunUntil(100)
		if ok {
			t.Errorf("%s: Advance returned true", c.name)
		}
	}
}

// TestAdvanceOnlyInsideRunUntil: between runs and in an event run by
// Step, Advance refuses; after a Step inside a run, the run's deadline
// holds again.
func TestAdvanceOnlyInsideRunUntil(t *testing.T) {
	e := New()
	if e.Advance(0) || e.Advance(5) {
		t.Fatal("Advance succeeded on a fresh engine")
	}
	e.RunUntil(10)
	if e.Advance(10) || e.Advance(11) {
		t.Fatal("Advance succeeded after RunUntil returned")
	}
	var stepped bool
	e.At(20, func(Time) { stepped = e.Advance(21) })
	e.Step()
	if stepped || e.Now() != 20 || e.Processed != 1 {
		t.Fatalf("Advance under Step = %v (Now %v, Processed %d); want false", stepped, e.Now(), e.Processed)
	}
	var inner, after bool
	e.At(30, func(Time) {
		e.At(30, func(Time) { inner = e.Advance(31) })
		e.Step()
		after = e.Advance(31)
	})
	e.RunUntil(40)
	if inner || !after {
		t.Fatalf("Advance in a nested Step = %v, after it = %v; want false, true", inner, after)
	}
}

// TestAdvanceKeepsOrderAgainstScheduling: a chain of events that
// advances inline where it can fires at the same times, with the same
// Processed and Pending, as the same chain scheduled event by event
// under Step, interleaved with a ticker landing on some of its times.
func TestAdvanceKeepsOrderAgainstScheduling(t *testing.T) {
	type obs struct {
		who       byte
		at        Time
		processed uint64
		pending   int
	}
	inlined := 0
	run := func(step bool) []obs {
		e := New()
		var log []obs
		gaps := []Time{3, 4, 3, 0, 5, 1, 7, 2, 0, 3}
		i := 0
		var chain ArgFunc
		chain = func(now Time, _ any) {
			for i < 200 {
				log = append(log, obs{who: 'c', at: now, processed: e.Processed, pending: e.Pending()})
				now += gaps[i%len(gaps)]
				i++
				if !e.Advance(now) {
					e.ScheduleArg(now, chain, nil)
					return
				}
				inlined++
			}
		}
		e.ScheduleArg(0, chain, nil)
		e.Every(6, func(now Time) {
			log = append(log, obs{who: 't', at: now, processed: e.Processed, pending: e.Pending()})
		})
		if step {
			for len(e.heap) > 0 && e.heap[0].at <= 500 {
				e.Step()
			}
		} else {
			e.RunUntil(500)
		}
		return log
	}
	inline, stepped := run(false), run(true)
	if inlined == 0 {
		t.Fatal("no event ran inline")
	}
	if len(inline) != len(stepped) {
		t.Fatalf("%d callbacks inline, %d stepped", len(inline), len(stepped))
	}
	for k := range inline {
		if inline[k] != stepped[k] {
			t.Fatalf("callback %d: inline %+v, stepped %+v", k, inline[k], stepped[k])
		}
	}
}
