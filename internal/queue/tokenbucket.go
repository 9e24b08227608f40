package queue

import (
	"fmt"

	"accturbo/internal/eventsim"
)

// TokenBucket is a classic token-bucket policer: it admits traffic up
// to a sustained bit rate with a bounded burst. ACC's rate-limiting
// sessions (internal/acc) police inferred aggregates with one bucket
// each.
type TokenBucket struct {
	rate   float64 // tokens (bytes) per nanosecond
	burst  float64 // bucket depth in bytes
	tokens float64
	last   eventsim.Time
}

// NewTokenBucket builds a policer admitting rateBits bits/second with a
// burst of burstBytes. The bucket starts full.
func NewTokenBucket(rateBits float64, burstBytes int) *TokenBucket {
	if rateBits <= 0 {
		panic(fmt.Sprintf("queue: token bucket rate %v must be positive", rateBits))
	}
	if burstBytes <= 0 {
		panic(fmt.Sprintf("queue: token bucket burst %d must be positive", burstBytes))
	}
	return &TokenBucket{
		rate:   rateBits / 8 / float64(eventsim.Second),
		burst:  float64(burstBytes),
		tokens: float64(burstBytes),
	}
}

// SetRate changes the sustained rate (bits/second), keeping accumulated
// tokens.
func (tb *TokenBucket) SetRate(rateBits float64) {
	if rateBits <= 0 {
		panic(fmt.Sprintf("queue: token bucket rate %v must be positive", rateBits))
	}
	tb.rate = rateBits / 8 / float64(eventsim.Second)
}

func (tb *TokenBucket) refill(now eventsim.Time) {
	if now <= tb.last {
		return
	}
	tb.tokens += float64(now-tb.last) * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
}

// Allow reports whether a packet of sizeBytes conforms at time now, and
// consumes tokens if it does. Non-conforming packets consume nothing.
func (tb *TokenBucket) Allow(now eventsim.Time, sizeBytes int) bool {
	tb.refill(now)
	if float64(sizeBytes) > tb.tokens {
		return false
	}
	tb.tokens -= float64(sizeBytes)
	return true
}
