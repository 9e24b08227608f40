package sketch

import (
	"math/rand"
	"testing"
)

// Benchmarks run at the Jaqen default geometry (4 rows × 65536 cols)
// over a pre-generated uniform key stream, so the ns/op numbers are
// directly comparable across the reference ([][]uint64 + per-row FNV)
// and turbo (one line + one mix per key) layouts. They are for
// profiling; TestSketchHotPathsAllocFree pins their zero-alloc claims.

const benchCols = 65536

func benchKeys(n int) []uint64 {
	r := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	return keys
}

func BenchmarkCountMinAdd(b *testing.B) {
	keys := benchKeys(1 << 16)
	b.Run("reference", func(b *testing.B) {
		cm := NewReferenceCountMin(TurboRows, benchCols)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cm.Add(keys[i&(1<<16-1)], 1)
		}
	})
	b.Run("turbo", func(b *testing.B) {
		tc := NewTurboCountMin(benchCols, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.Add(keys[i&(1<<16-1)], 1)
		}
	})
	b.Run("turbo-cu", func(b *testing.B) {
		tc := NewTurboCountMin(benchCols, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.Add(keys[i&(1<<16-1)], 1)
		}
	})
}

func BenchmarkTopKOffer(b *testing.B) {
	keys := benchKeys(1 << 16)
	tk := NewTopK(16, 4096, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tk.Offer(keys[i&(1<<16-1)], 64)
	}
}

// TestSketchHotPathsAllocFree gates the zero-alloc claims of every
// BenchmarkCountMinAdd row and of BenchmarkTopKOffer.
func TestSketchHotPathsAllocFree(t *testing.T) {
	keys := benchKeys(1 << 10)

	for _, cu := range []bool{false, true} {
		tc := NewTurboCountMin(4096, cu)
		if a := testing.AllocsPerRun(100, func() { tc.Add(keys[0], 1); tc.Estimate(keys[1]) }); a != 0 {
			t.Fatalf("TurboCountMin (conservative=%v) Add/Estimate: %.1f allocs/op", cu, a)
		}
	}
	ref := NewReferenceCountMin(TurboRows, 4096)
	if a := testing.AllocsPerRun(100, func() { ref.Add(keys[0], 1); ref.Estimate(keys[1]) }); a != 0 {
		t.Fatalf("ReferenceCountMin Add/Estimate: %.1f allocs/op", a)
	}
	tk := NewTopK(16, 4096, 1)
	for i, k := range keys {
		tk.Offer(k, uint64(i%100)+1) // reach steady state (heap full)
	}
	if a := testing.AllocsPerRun(100, func() { tk.Offer(keys[3], 7); tk.Offer(^keys[5], 9) }); a != 0 {
		t.Fatalf("TopK Offer: %.1f allocs/op", a)
	}
	// Runs of a tracked key, cut by challengers: opening, extending and
	// flushing a run.
	heavy := tk.AppendTop(nil)[0].Key
	if a := testing.AllocsPerRun(100, func() {
		tk.Offer(heavy, 7)
		tk.Offer(heavy, 7)
		tk.Offer(heavy, 7)
		tk.Offer(^keys[5], 9)
	}); a != 0 {
		t.Fatalf("TopK Offer in runs: %.1f allocs/op", a)
	}
}
