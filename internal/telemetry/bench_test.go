package telemetry

import "testing"

// BenchmarkObserve is the telemetry hot-path budget benchmark: the cost
// one instrumented packet event adds to a pipeline. CI records it into
// BENCH_telemetry.json so future PRs can diff (budget: ≤ a few ns/op,
// 0 allocs/op).
func BenchmarkObserve(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		var c Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("vec-counter", func(b *testing.B) {
		v := NewVecCounter(10, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.Add(3, i%10, 1)
		}
	})
	b.Run("histogram", func(b *testing.B) {
		h := NewHistogram(LatencyBuckets())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i % 1_000_000))
		}
	})
}

// BenchmarkVecCounterParallel measures contention behaviour: every
// goroutine writes its own stripe, so throughput should scale with
// cores instead of collapsing onto one cache line.
func BenchmarkVecCounterParallel(b *testing.B) {
	v := NewVecCounter(10, 64)
	var next Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		shard := int(next.v.Add(1)) % 64
		i := 0
		for pb.Next() {
			v.Add(shard, i%10, 1)
			i++
		}
	})
}
