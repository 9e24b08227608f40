package faults

import (
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
)

// StallClock wraps a core.Clock and simulates a stalled control loop
// during the spec's stall windows: a periodic (Every) callback due
// inside a window is suppressed — the tick the stalled loop never got
// to run — while a one-shot (After) callback scheduled to land inside
// a window is delayed to the window's end, modeling a deployment that
// eventually completes late. Now is passed through untouched.
//
// The control plane installs it via Config.WrapClock, which wraps only
// the loop's clock; the watchdog stays on the raw clock underneath, so
// supervision keeps running while the loop it guards is stalled.
type StallClock struct {
	inner   core.Clock
	windows []StallSpec // sorted by At
	inj     *Injector   // counts suppressed and delayed callbacks
}

var _ core.Clock = (*StallClock)(nil)

// stallEnd returns the end of the stall window containing t, if any.
func (c *StallClock) stallEnd(t eventsim.Time) (eventsim.Time, bool) {
	for _, w := range c.windows {
		if t >= w.At && t < w.At+w.For {
			return w.At + w.For, true
		}
	}
	return 0, false
}

// Now implements core.Clock.
func (c *StallClock) Now() eventsim.Time { return c.inner.Now() }

// After implements core.Clock: callbacks due inside a stall window are
// rescheduled to fire at the window's end.
func (c *StallClock) After(delay eventsim.Time, fn func(now eventsim.Time)) (cancel func()) {
	if end, stalled := c.stallEnd(c.inner.Now() + delay); stalled {
		c.inj.CallbacksDelayed.Inc()
		return c.inner.After(end-c.inner.Now(), fn)
	}
	return c.inner.After(delay, fn)
}

// Every implements core.Clock: ticks that land inside a stall window
// are dropped (and counted); the cadence resumes unchanged after the
// window, exactly as if the loop goroutine had been wedged and the
// missed ticks coalesced away.
func (c *StallClock) Every(interval eventsim.Time, fn func(now eventsim.Time)) (stop func()) {
	return c.inner.Every(interval, func(now eventsim.Time) {
		if _, stalled := c.stallEnd(now); stalled {
			c.inj.PollsSuppressed.Inc()
			return
		}
		fn(now)
	})
}

// ClockWrapper returns a core.Config.WrapClock hook applying the
// spec's stall windows, or nil when the spec has none — so wiring the
// injector unconditionally never perturbs an un-stalled configuration.
func (inj *Injector) ClockWrapper() func(core.Clock) core.Clock {
	if len(inj.spec.Stalls) == 0 {
		return nil
	}
	return func(c core.Clock) core.Clock {
		return &StallClock{inner: c, windows: inj.spec.Stalls, inj: inj}
	}
}
