package main

import (
	"math"
	"testing"
)

// TestCheckRates: the flag values that used to reach a generator's panic
// (or, for NaN, a loop that never ends) are refused where they are parsed.
func TestCheckRates(t *testing.T) {
	for _, c := range []struct {
		link, duration float64
		ok             bool
	}{
		{10e6, 30, true},
		{1, 0.001, true},
		{0, 30, false},
		{-10e6, 30, false},
		{math.NaN(), 30, false},
		{math.Inf(1), 30, false},
		{10e6, 0, false},
		{10e6, -3, false},
		{10e6, math.NaN(), false},
		{10e6, math.Inf(1), false},
	} {
		if err := checkRates(c.link, c.duration); (err == nil) != c.ok {
			t.Errorf("checkRates(%v, %v) = %v, want ok=%v", c.link, c.duration, err, c.ok)
		}
	}
}
