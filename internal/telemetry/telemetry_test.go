package telemetry

import (
	"strings"
	"sync"
	"testing"

	"accturbo/internal/eventsim"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	r := NewRegistry()
	r.Counter("c", &c)
	r.GaugeFunc("g", func() float64 { return -4 })
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Kind != KindCounter || snap[0].Value != 42 || snap[1].Kind != KindGauge || snap[1].Value != -4 {
		t.Fatalf("samples = %+v, want counter c 42 and gauge g -4", snap)
	}
}

func TestVecCounterStriping(t *testing.T) {
	v := NewVecCounter(10, 4)
	for shard := 0; shard < 4; shard++ {
		for i := 0; i < 10; i++ {
			v.Add(shard, i, uint64(i+1))
		}
	}
	for i := 0; i < 10; i++ {
		if got, want := v.Value(i), uint64(4*(i+1)); got != want {
			t.Fatalf("counter %d = %d, want %d", i, got, want)
		}
	}
	if got, want := v.Total(), uint64(4*55); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	// Out-of-range index clamps to the last counter, out-of-range shard
	// folds to stripe 0 — both still count.
	before := v.Value(9)
	v.Add(99, 99, 1)
	if got := v.Value(9); got != before+1 {
		t.Fatalf("clamped add lost: %d -> %d", before, got)
	}
	vals := v.Values()
	if len(vals) != 10 || vals[9] != before+1 {
		t.Fatalf("Values() = %v", vals)
	}
}

func TestVecCounterConcurrent(t *testing.T) {
	const shards, perShard = 8, 10000
	v := NewVecCounter(4, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				v.Add(s, i%4, 1)
			}
		}(s)
	}
	wg.Wait()
	if got, want := v.Total(), uint64(shards*perShard); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := []uint64{2, 2, 1, 1}; len(s.Counts) != 4 ||
		s.Counts[0] != want[0] || s.Counts[1] != want[1] || s.Counts[2] != want[2] || s.Counts[3] != want[3] {
		t.Fatalf("counts = %v, want %v", s.Counts, want)
	}
	if s.Count != 6 || s.Sum != 5626 || s.Max != 5000 {
		t.Fatalf("count/sum/max = %d/%d/%d", s.Count, s.Sum, s.Max)
	}
	if got := s.Mean(); got != 5626.0/6 {
		t.Fatalf("mean = %v", got)
	}
	// Snapshot is a copy: mutating it doesn't touch the live histogram.
	s.Counts[0] = 999
	if h.Snapshot().Counts[0] != 2 {
		t.Fatal("snapshot aliases live counts")
	}
	h.ObserveSince(100, 150)
	if h.Snapshot().Counts[1] != 3 {
		t.Fatal("ObserveSince missed bucket 1")
	}
}

func TestLatencyBucketsAscending(t *testing.T) {
	b := LatencyBuckets()
	if len(b) == 0 || b[0] != int64(eventsim.Microsecond) {
		t.Fatalf("buckets = %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
	NewHistogram(b) // must not panic
}

func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(3)
	h := NewHistogram([]int64{10, 20})
	h.Observe(5)
	h.Observe(15)
	h.Observe(25)
	r.Counter("pkts_total", &c)
	r.GaugeFunc("depth", func() float64 { return -2 })
	r.Histogram("latency_ns", h)
	r.CounterFunc("derived_total", func() uint64 { return 9 })
	r.GaugeFunc("ratio", func() float64 { return 0.5 })

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE depth gauge\ndepth -2\n",
		"# TYPE pkts_total counter\npkts_total 3\n",
		"derived_total 9\n",
		"# TYPE ratio gauge\nratio 0.5\n",
		"latency_ns_bucket{le=\"10\"} 1\n",
		"latency_ns_bucket{le=\"20\"} 2\n",
		"latency_ns_bucket{le=\"+Inf\"} 3\n",
		"latency_ns_sum 45\n",
		"latency_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Stable order: samples sort by name.
	if strings.Index(out, "depth") > strings.Index(out, "pkts_total") {
		t.Error("exposition not sorted by name")
	}

	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d samples, want 5", len(snap))
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("depth", &c)
}
