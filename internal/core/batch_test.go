package core

import (
	"testing"

	"accturbo/internal/packet"
)

// TestObserveBatchMatchesClassify: driving the same packet sequence
// through ObserveBatch (in chunks) and through per-packet Classify must
// produce identical queue choices, clusterer state, and aggregate
// counters. Batch grouping preserves each shard's observation order, so
// the two paths are the same computation.
func TestObserveBatchMatchesClassify(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		perPkt := NewDataplane(cfg, false)
		batched := NewDataplane(cfg, false)

		const n = 4096
		pkts := make([]*packet.Packet, n)
		for i := range pkts {
			pkts[i] = mkPkt(i)
		}
		wantQ := make([]int, n)
		for i, p := range pkts {
			_, wantQ[i] = perPkt.Classify(p)
		}
		gotQ := make([]int, n)
		// Uneven chunk sizes exercise the grouping across batch seams.
		for lo := 0; lo < n; {
			hi := lo + 1 + (lo % 97)
			if hi > n {
				hi = n
			}
			batched.ObserveBatch(pkts[lo:hi], gotQ[lo:hi])
			lo = hi
		}

		for i := range wantQ {
			if gotQ[i] != wantQ[i] {
				t.Fatalf("shards=%d: packet %d routed to queue %d via batch, %d via Classify",
					shards, i, gotQ[i], wantQ[i])
			}
		}
		if a, b := perPkt.Observed(), batched.Observed(); a != b {
			t.Fatalf("shards=%d: observed %d vs %d", shards, b, a)
		}
		wantA, wantR := perPkt.Counts()
		gotA, gotR := batched.Counts()
		for i := range wantA {
			if gotA[i] != wantA[i] {
				t.Fatalf("shards=%d: assigned[%d] = %d via batch, %d via Classify", shards, i, gotA[i], wantA[i])
			}
		}
		for i := range wantR {
			if gotR[i] != wantR[i] {
				t.Fatalf("shards=%d: routed[%d] = %d via batch, %d via Classify", shards, i, gotR[i], wantR[i])
			}
		}
		for s := 0; s < shards; s++ {
			a, b := perPkt.shards[s].clusterer.Snapshot(), batched.shards[s].clusterer.Snapshot()
			if len(a) != len(b) {
				t.Fatalf("shards=%d: shard %d cluster count %d vs %d", shards, s, len(b), len(a))
			}
		}
	}
}

// TestObserveBatchNilQueues: passing nil queues only skips the
// per-packet queue report; counters still advance.
func TestObserveBatchNilQueues(t *testing.T) {
	cfg := DefaultConfig()
	dp := NewDataplane(cfg, false)
	pkts := make([]*packet.Packet, 100)
	for i := range pkts {
		pkts[i] = mkPkt(i)
	}
	dp.ObserveBatch(pkts, nil)
	if dp.Observed() != 100 {
		t.Fatalf("observed %d, want 100", dp.Observed())
	}
	var routed uint64
	_, routedCounts := dp.Counts()
	for _, c := range routedCounts {
		routed += c
	}
	if routed != 100 {
		t.Fatalf("routed total %d, want 100", routed)
	}
}

// TestObserveBatchShortQueuesPanics: a too-short queues slice is a
// caller bug and must fail loudly, not write out of bounds.
func TestObserveBatchShortQueuesPanics(t *testing.T) {
	dp := NewDataplane(DefaultConfig(), false)
	pkts := []*packet.Packet{mkPkt(1), mkPkt(2)}
	defer func() {
		if recover() == nil {
			t.Fatal("short queues slice did not panic")
		}
	}()
	dp.ObserveBatch(pkts, make([]int, 1))
}

// TestObserveBatchZeroAlloc is the unit gate on the batched per-packet
// path: once the clusterers and scratch are warm, classifying a batch
// allocates nothing, single- and multi-shard.
func TestObserveBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool retention; scratch reuse is not guaranteed")
	}
	for _, shards := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		dp := NewDataplane(cfg, false)
		pkts := make([]*packet.Packet, 256)
		for i := range pkts {
			pkts[i] = mkPkt(i)
		}
		queues := make([]int, len(pkts))
		dp.ObserveBatch(pkts, queues) // warm clusterers and scratch
		allocs := testing.AllocsPerRun(100, func() {
			dp.ObserveBatch(pkts, queues)
		})
		if allocs != 0 {
			t.Fatalf("shards=%d: ObserveBatch allocates %v per batch, want 0", shards, allocs)
		}
	}
}

func BenchmarkDataplaneObserveBatch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	dp := NewDataplane(cfg, false)
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		pkts[i] = mkPkt(i)
	}
	queues := make([]int, len(pkts))
	dp.ObserveBatch(pkts, queues)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.ObserveBatch(pkts, queues)
	}
}
