// Package eventsim provides a deterministic discrete-event simulation
// engine: a virtual nanosecond clock and a priority queue of scheduled
// callbacks.
//
// The engine is single-threaded. Events scheduled for the same instant
// fire in scheduling order (a monotonically increasing sequence number
// breaks ties), which makes every simulation exactly reproducible.
//
// The queue is built for the per-packet hot path of the network
// simulator: events live in a value-typed 4-ary min-heap (no per-event
// box, no container/heap interface calls), event state is kept in a
// slot arena recycled through a free list, and Handles are
// generation-stamped (slot, gen) pairs so cancelling a stale handle
// after its slot was reused is always a safe no-op. Scheduling through
// ScheduleArg/AfterArg with a package-level function and a pointer
// argument is allocation-free in steady state; the closure-taking
// At/After remain for cold paths. An event the engine would run next
// anyway can run inline instead (Advance).
package eventsim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Common time unit helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the virtual time to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration into a virtual Time.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// FromSeconds converts seconds into a virtual Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// String formats the time in seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Pulses is a periodic schedule of Count windows (T_on = Len, T_cycle =
// Period in pulse-wave terms): attack pulses, link flaps, a ramped
// attack. Ramp is how long a ramped source takes to climb from zero at
// a window's start to its peak, and to fall back by its end.
type Pulses struct {
	First, Len, Period, Ramp Time
	Count                    int
}

// Window returns window i's [start, end).
func (p Pulses) Window(i int) (start, end Time) {
	start = p.First + Time(i)*p.Period
	return start, start + p.Len
}

// In reports whether t falls inside one of the windows.
func (p Pulses) In(t Time) bool {
	for i := range p.Count {
		if s, e := p.Window(i); s <= t && t < e {
			return true
		}
	}
	return false
}

// ArgFunc is a scheduled callback receiving the argument it was
// scheduled with. Using a package-level ArgFunc plus a pointer-typed
// argument schedules without allocating a closure.
type ArgFunc func(now Time, arg any)

// heapEnt is one entry of the event queue: the firing key plus the
// index of the slot holding the callback. Entries are moved by value
// during sifts; the slot arena never moves.
type heapEnt struct {
	at   Time
	seq  uint64
	slot int32
}

// eslot holds one scheduled event's callback state. Slots are recycled
// through the engine's free list; gen distinguishes incarnations so a
// stale Handle can never touch a successor event.
type eslot struct {
	gen     uint32
	heapIdx int32 // index into Engine.heap; -1 when not queued
	fn      func(now Time)
	argFn   ArgFunc
	arg     any
}

// Handle refers to a scheduled event and allows cancellation. The zero
// Handle refers to no event; cancelling it is a no-op. Handles are
// generation-stamped: once the event fires or is cancelled, the handle
// goes stale and stays inert even after the engine reuses its slot.
type Handle struct {
	slot int32
	gen  uint32
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now   Time
	seq   uint64
	heap  []heapEnt
	slots []eslot
	free  []int32
	// Processed counts events executed since construction, inline ones
	// (Advance) included.
	Processed uint64
	// until bounds Advance: the running RunUntil's deadline, -1 (before
	// every event time) outside RunUntil and under Step.
	until Time
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine { return &Engine{until: -1} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.heap) }

func lessEnt(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property upward from index i, moving the
// displaced entry as a hole to halve the writes of swap-based sifting.
func (e *Engine) siftUp(i int) {
	ent := e.heap[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !lessEnt(ent, e.heap[p]) {
			break
		}
		e.heap[i] = e.heap[p]
		e.slots[e.heap[i].slot].heapIdx = int32(i)
		i = p
	}
	e.heap[i] = ent
	e.slots[ent.slot].heapIdx = int32(i)
}

// siftDown restores the heap property downward from index i.
func (e *Engine) siftDown(i int) {
	n := len(e.heap)
	ent := e.heap[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if lessEnt(e.heap[j], e.heap[best]) {
				best = j
			}
		}
		if !lessEnt(e.heap[best], ent) {
			break
		}
		e.heap[i] = e.heap[best]
		e.slots[e.heap[i].slot].heapIdx = int32(i)
		i = best
	}
	e.heap[i] = ent
	e.slots[ent.slot].heapIdx = int32(i)
}

// heapRemove deletes the entry at heap index i.
func (e *Engine) heapRemove(i int) {
	n := len(e.heap) - 1
	if i != n {
		e.heap[i] = e.heap[n]
		e.slots[e.heap[i].slot].heapIdx = int32(i)
	}
	e.heap = e.heap[:n]
	if i < n {
		e.siftDown(i)
		e.siftUp(i)
	}
}

// popRoot removes and returns the earliest entry.
func (e *Engine) popRoot() heapEnt {
	root := e.heap[0]
	n := len(e.heap) - 1
	if n > 0 {
		e.heap[0] = e.heap[n]
		e.slots[e.heap[0].slot].heapIdx = 0
	}
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown(0)
	}
	return root
}

// allocSlot returns a free slot index, growing the arena when the free
// list is empty.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		si := e.free[n-1]
		e.free = e.free[:n-1]
		return si
	}
	e.slots = append(e.slots, eslot{gen: 1, heapIdx: -1})
	return int32(len(e.slots) - 1)
}

// releaseSlot retires a fired or cancelled event's slot: the generation
// advances (skipping 0, which marks the zero Handle), callback state is
// cleared so the arena retains nothing, and the slot rejoins the free
// list.
func (e *Engine) releaseSlot(si int32) {
	s := &e.slots[si]
	s.gen++
	if s.gen == 0 {
		s.gen = 1
	}
	s.heapIdx = -1
	s.fn = nil
	s.argFn = nil
	s.arg = nil
	e.free = append(e.free, si)
}

// schedule inserts an event. Exactly one of fn/argFn is non-nil.
func (e *Engine) schedule(at Time, fn func(now Time), argFn ArgFunc, arg any) Handle {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: scheduling at %v before now %v", at, e.now))
	}
	si := e.allocSlot()
	s := &e.slots[si]
	s.fn = fn
	s.argFn = argFn
	s.arg = arg
	gen := s.gen
	e.heap = append(e.heap, heapEnt{at: at, seq: e.seq, slot: si})
	e.seq++
	e.siftUp(len(e.heap) - 1)
	return Handle{slot: si, gen: gen}
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) panics: it would silently corrupt causality.
func (e *Engine) At(at Time, fn func(now Time)) Handle {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	return e.schedule(at, fn, nil, nil)
}

// After schedules fn to run delay nanoseconds from now.
func (e *Engine) After(delay Time, fn func(now Time)) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", delay))
	}
	return e.At(e.now+delay, fn)
}

// ScheduleArg schedules fn(at, arg) at absolute virtual time at. With a
// package-level fn and a pointer-shaped arg the call is allocation-free
// — the per-packet alternative to the closure-capturing At.
func (e *Engine) ScheduleArg(at Time, fn ArgFunc, arg any) Handle {
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	return e.schedule(at, nil, fn, arg)
}

// AfterArg schedules fn(now, arg) delay nanoseconds from now. See
// ScheduleArg.
func (e *Engine) AfterArg(delay Time, fn ArgFunc, arg any) Handle {
	if delay < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", delay))
	}
	return e.ScheduleArg(e.now+delay, fn, arg)
}

// Cancel removes a scheduled event. Cancelling an already-fired,
// already-cancelled, or zero handle is a no-op — the generation stamp
// keeps a stale handle from ever touching the slot's next occupant.
func (e *Engine) Cancel(h Handle) {
	if h.gen == 0 || int(h.slot) >= len(e.slots) {
		return
	}
	s := &e.slots[h.slot]
	if s.gen != h.gen || s.heapIdx < 0 {
		return
	}
	e.heapRemove(int(s.heapIdx))
	e.releaseSlot(h.slot)
}

// ticker carries the state of an Every loop so each tick reschedules
// through AfterArg without a fresh closure.
type ticker struct {
	e        *Engine
	interval Time
	fn       func(now Time)
	stopped  bool
}

func tickerFire(now Time, arg any) {
	t := arg.(*ticker)
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.e.AfterArg(t.interval, tickerFire, t)
	}
}

// Every schedules fn at now+interval, now+2*interval, ... until the
// engine stops or the returned stop function is called. fn runs before
// the next occurrence is scheduled, so it may consult Pending() freely.
func (e *Engine) Every(interval Time, fn func(now Time)) (stop func()) {
	if interval <= 0 {
		panic(fmt.Sprintf("eventsim: non-positive interval %v", interval))
	}
	if fn == nil {
		panic("eventsim: nil event callback")
	}
	t := &ticker{e: e, interval: interval, fn: fn}
	e.AfterArg(interval, tickerFire, t)
	return func() { t.stopped = true }
}

// fire pops slot state for ent, retires the slot, and runs the
// callback. The slot is released before the callback runs so the
// callback may freely schedule (and likely reuse the slot).
func (e *Engine) fire(ent heapEnt) {
	s := &e.slots[ent.slot]
	fn, argFn, arg := s.fn, s.argFn, s.arg
	e.releaseSlot(ent.slot)
	e.now = ent.at
	e.Processed++
	if argFn != nil {
		argFn(ent.at, arg)
	} else {
		fn(ent.at)
	}
}

// RunUntil executes events with timestamps <= deadline, then advances
// the clock to deadline (if any events remain they stay queued).
func (e *Engine) RunUntil(deadline Time) {
	// Deterministic Defense.Process calls this per packet, nearly always
	// with nothing due: that path stays a compare and a store.
	if len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.runDue(deadline)
	}
	if deadline != MaxTime && deadline > e.now {
		e.now = deadline
	}
}

// runDue fires every event due by deadline, with Advance bounded by it.
func (e *Engine) runDue(deadline Time) {
	outer := e.until
	e.until = deadline
	for len(e.heap) > 0 && e.heap[0].at <= deadline {
		e.fire(e.popRoot())
	}
	e.until = outer
}

// Step executes the single earliest pending event and reports whether
// one existed. Under Step, Advance refuses: every event is queued.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	outer := e.until
	e.until = -1
	e.fire(e.popRoot())
	e.until = outer
	return true
}

// Advance runs an event for time at inline: when at is no earlier than
// Now, strictly earlier than every pending event and within the running
// RunUntil's deadline, it moves the clock to at, counts the event in
// Processed and returns true, and the caller does the event's work.
// Otherwise it changes nothing and the caller schedules the event. That
// event is exactly the one RunUntil would pop next, so the order, and
// the Now, Pending and Processed every callback sees, are kept; equal
// times go through the queue, so the seq tie-break is never needed.
func (e *Engine) Advance(at Time) bool {
	if at < e.now || at > e.until || len(e.heap) > 0 && at >= e.heap[0].at {
		return false
	}
	e.now = at
	e.Processed++
	return true
}
