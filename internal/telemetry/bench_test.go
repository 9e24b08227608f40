package telemetry

import "testing"

// BenchmarkObserve is the telemetry hot-path budget benchmark: the cost
// one instrumented packet event adds to a pipeline (budget: ≤ a few
// ns/op; TestObserveZeroAlloc pins its 0 allocs/op).
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

// TestObserveZeroAlloc: recording a packet event into a counter, a
// striped counter or a histogram allocates nothing.
func TestObserveZeroAlloc(t *testing.T) {
	var c Counter
	v := NewVecCounter(10, 8)
	h := NewHistogram(LatencyBuckets())
	i := 0
	for _, row := range []struct {
		name string
		fn   func()
	}{
		{"counter", func() { c.Inc() }},
		{"vec-counter", func() { v.Add(3, i%10, 1) }},
		{"histogram", func() { h.Observe(int64(i % 1_000_000)) }},
	} {
		if a := testing.AllocsPerRun(1000, func() { row.fn(); i++ }); a != 0 {
			t.Errorf("%s: %v allocs per event, want 0", row.name, a)
		}
	}
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
