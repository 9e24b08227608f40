// Package ring provides the single-producer/single-consumer ring
// buffer underneath the wire-speed ingest path. One goroutine pushes,
// one goroutine pops; neither ever takes a lock, so a capture thread
// and a per-shard classifier share nothing but two cache lines of
// atomics.
//
// The layout follows the classic bounded SPSC design used by DPDK-style
// packet rings:
//
//   - Power-of-two capacity, so positions are free-running uint64
//     counters and slot indexing is one mask — full/empty are
//     (tail-head >= size) and (tail == head), with no wraparound
//     ambiguity for any practical stream length.
//   - The producer publishes with one atomic release store of tail; the
//     consumer publishes consumption with one release store of head.
//     Each side keeps a cached copy of the other's counter and reloads
//     it only when the ring looks full (producer) or empty (consumer),
//     so the steady-state hot path is one cache-local check per item.
//   - Head, tail, and each side's local state live on separate padded
//     cache lines: the producer line and consumer line never false-share.
//   - Batched publish: Push appends without publishing; Publish makes
//     every pushed item visible with a single release store. At ingest
//     batch sizes this amortizes the only cross-core store the producer
//     performs.
//
// Close is a producer-side signal: consumers drain remaining items and
// then observe closure. Pushing after Close is a contract violation the
// ring tolerates (the item is dropped by the closed check), so racing
// offer/close paths can be counted as shed by the caller.
package ring

import "sync/atomic"

// cacheLine is the padding unit separating producer- and consumer-owned
// state. 64 bytes covers x86-64 and most arm64 cores.
const cacheLine = 64

// SPSC is a bounded single-producer/single-consumer ring. The zero
// value is not usable; construct with New. The producer-side methods
// (Push, Publish, Close) must be called from one goroutine at a time,
// and PopBatch, the consumer side, from one goroutine at a time; the two
// sides need no coordination.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_    [cacheLine]byte
	head atomic.Uint64 // next unconsumed position, published by the consumer

	_    [cacheLine - 8]byte
	tail atomic.Uint64 // first unpublished position, published by the producer

	_ [cacheLine - 8]byte
	// Producer-owned line: ptail runs ahead of tail between Publish
	// calls; cachedHead avoids re-reading head until the ring looks full.
	ptail      uint64
	cachedHead uint64

	_ [cacheLine - 16]byte
	// Consumer-owned line.
	cachedTail uint64

	_      [cacheLine - 8]byte
	closed atomic.Bool
}

// New builds a ring with at least the given capacity, rounded up to the
// next power of two (minimum 2). It panics on a non-positive capacity.
func New[T any](capacity int) *SPSC[T] {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	size := 2
	for size < capacity {
		size <<= 1
	}
	return &SPSC[T]{buf: make([]T, size), mask: uint64(size - 1)}
}

// Cap returns the ring's capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the number of published, unconsumed items. It is a
// point-in-time estimate, exact only when one side is quiescent.
func (r *SPSC[T]) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Push appends v without publishing it; the item becomes visible to the
// consumer at the next Publish. It reports false — and buffers nothing —
// when the ring is full (counting unpublished items) or closed.
func (r *SPSC[T]) Push(v T) bool {
	if r.ptail-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if r.ptail-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	if r.closed.Load() {
		return false
	}
	r.buf[r.ptail&r.mask] = v
	r.ptail++
	return true
}

// Publish makes every item pushed so far visible to the consumer with
// one release store.
func (r *SPSC[T]) Publish() {
	if r.ptail != r.tail.Load() {
		r.tail.Store(r.ptail)
	}
}

// PopBatch moves up to len(dst) published items into dst and returns
// the count (consumer-side only). Consumption is published once per
// batch, so the producer's full-check cost is amortized the same way
// Publish amortizes the consumer's empty-check.
func (r *SPSC[T]) PopBatch(dst []T) int {
	h := r.head.Load()
	avail := r.cachedTail - h
	if avail == 0 {
		r.cachedTail = r.tail.Load()
		avail = r.cachedTail - h
		if avail == 0 {
			return 0
		}
	}
	n := uint64(len(dst))
	if n > avail {
		n = avail
	}
	for i := uint64(0); i < n; i++ {
		dst[i] = r.buf[(h+i)&r.mask]
	}
	r.head.Store(h + n)
	return int(n)
}

// Close marks the ring closed: subsequent pushes fail, and a consumer
// that sees Closed() and then drains to empty has seen every published
// item. Safe to call more than once, and safe to call from a goroutine
// other than the producer provided the producer has stopped (or its
// racing pushes may be rejected, which callers count as shed).
func (r *SPSC[T]) Close() { r.closed.Store(true) }

// Closed reports whether Close has been called.
func (r *SPSC[T]) Closed() bool { return r.closed.Load() }
