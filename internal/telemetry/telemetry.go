// Package telemetry is the defense's instrumentation substrate:
// allocation-free instruments read through a Registry.
//
//   - Counter is one atomic event count (the fault injector's tallies,
//     the control plane's deployments, panics, watchdog trips and
//     fail-opens, the ingest queue's shed and rejected frames).
//   - VecCounter is a vector of counters striped across writer shards:
//     the data plane's per-(cluster, queue) packet counts.
//   - Histogram counts observations into fixed buckets with
//     copy-on-read Snapshot semantics: the control plane's
//     deployment-latency distribution.
//   - Registry names instruments, and derived values read through a
//     function, for the Prometheus-style text export behind
//     Defense.WriteMetrics and the admin surface's /metrics.
//
// Instruments never read a clock; callers pass timestamps, so an
// update is one atomic add and a simulated run stays bit-identical.
//
// Concurrency: all instruments are safe for concurrent use. Writers on
// the sharded real-time pipeline use VecCounter, whose per-shard slots
// are padded onto distinct cache lines and aggregated lock-free at
// read time, so concurrent shards never contend on a counter line.
package telemetry

import "sync/atomic"

// cacheLine is the assumed cache-line size in bytes for slot padding.
const cacheLine = 64

// Counter is a monotonically increasing event count. The zero value is
// ready to use. Add is one uncontended atomic; heavily shared hot paths
// that would contend on it should use a VecCounter instead.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// VecCounter is a vector of n counters, each striped across `shards`
// writer slots. The layout is shard-major with each shard's stripe
// padded to a whole number of cache lines, so writers on different
// shards never share a line: slot(shard, i) = shard*stride + i.
// Reads aggregate the stripes lock-free.
type VecCounter struct {
	n      int
	stride int
	slots  []atomic.Uint64
}

// NewVecCounter builds a vector of n counters striped across shards
// writer slots (minimum 1 each).
func NewVecCounter(n, shards int) *VecCounter {
	if n < 1 {
		n = 1
	}
	if shards < 1 {
		shards = 1
	}
	perLine := cacheLine / 8
	stride := (n + perLine - 1) / perLine * perLine
	return &VecCounter{n: n, stride: stride, slots: make([]atomic.Uint64, stride*shards)}
}

// Add increments counter i on the given shard's stripe by delta.
// Out-of-range indexes are clamped to the last counter; out-of-range
// shards fold onto stripe 0 (still correct, possibly contended).
func (v *VecCounter) Add(shard, i int, delta uint64) {
	if i < 0 || i >= v.n {
		i = v.n - 1
	}
	if shard < 0 || shard*v.stride >= len(v.slots) {
		shard = 0
	}
	v.slots[shard*v.stride+i].Add(delta)
}

// Value returns counter i aggregated across all stripes.
func (v *VecCounter) Value(i int) uint64 {
	if i < 0 || i >= v.n {
		return 0
	}
	var sum uint64
	for off := i; off < len(v.slots); off += v.stride {
		sum += v.slots[off].Load()
	}
	return sum
}

// Values returns a copy of all counters aggregated across stripes.
func (v *VecCounter) Values() []uint64 {
	out := make([]uint64, v.n)
	for i := range out {
		out[i] = v.Value(i)
	}
	return out
}

// Total returns the sum over the whole vector. Add never writes a
// padding slot, so this sums every slot in one pass.
func (v *VecCounter) Total() uint64 {
	var sum uint64
	for i := range v.slots {
		sum += v.slots[i].Load()
	}
	return sum
}
