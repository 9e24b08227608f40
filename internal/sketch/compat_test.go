package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCountMinMatchesReference pins the flattened layout bit-identical
// to the seed-era [][]uint64 implementation: same hashes, same column
// indexing, same estimates after every single update, across several
// geometries (including non-power-of-two columns, where any masking
// shortcut would diverge immediately).
func TestCountMinMatchesReference(t *testing.T) {
	for _, g := range []struct{ rows, cols int }{
		{1, 7}, {3, 100}, {4, 4096}, {4, 65536}, {5, 1021},
	} {
		flat := NewCountMin(g.rows, g.cols)
		ref := NewReferenceCountMin(g.rows, g.cols)
		r := rand.New(rand.NewSource(int64(g.rows*100000 + g.cols)))
		for i := 0; i < 20_000; i++ {
			k := r.Uint64() >> uint(r.Intn(60)) // mix dense and sparse keys
			d := uint64(r.Intn(9) + 1)
			if got, want := flat.Add(k, d), ref.Add(k, d); got != want {
				t.Fatalf("%dx%d update %d: flat Add=%d reference Add=%d", g.rows, g.cols, i, got, want)
			}
		}
		for i := 0; i < 5_000; i++ {
			k := r.Uint64() >> uint(r.Intn(60))
			if got, want := flat.Estimate(k), ref.Estimate(k); got != want {
				t.Fatalf("%dx%d: flat Estimate=%d reference Estimate=%d for key %x", g.rows, g.cols, got, want, k)
			}
		}
		if flat.Updates != ref.Updates {
			t.Fatalf("Updates diverged: %d vs %d", flat.Updates, ref.Updates)
		}
	}
}

// Property variant of the same pin, over arbitrary key/delta streams.
func TestQuickCountMinMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		flat := NewCountMin(3, 129)
		ref := NewReferenceCountMin(3, 129)
		for i := 0; i < 300; i++ {
			k := r.Uint64()
			d := uint64(r.Intn(7) + 1)
			if flat.Add(k, d) != ref.Add(k, d) {
				return false
			}
		}
		for i := 0; i < 100; i++ {
			k := r.Uint64()
			if flat.Estimate(k) != ref.Estimate(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(50)); err != nil {
		t.Fatal(err)
	}
}

// TestCountMinSaturatesInsteadOfWrapping is the overflow regression: a
// counter pushed past MaxUint64 must pin there, not wrap to a small
// value that would silently become the row minimum and poison every
// estimate sharing the counter.
func TestCountMinSaturatesInsteadOfWrapping(t *testing.T) {
	cm := NewCountMin(2, 8)
	cm.Add(42, math.MaxUint64-5)
	if got := cm.Add(42, 10); got != math.MaxUint64 {
		t.Fatalf("Add past MaxUint64 returned %d, want saturation at MaxUint64", got)
	}
	if got := cm.Estimate(42); got != math.MaxUint64 {
		t.Fatalf("Estimate after saturation = %d, want MaxUint64", got)
	}
	// A saturated counter must stay an overestimate for everything else
	// in the column: further adds keep it pinned.
	if got := cm.Add(42, math.MaxUint64); got != math.MaxUint64 {
		t.Fatalf("saturated counter moved to %d", got)
	}
	// The reference oracle saturates identically.
	ref := NewReferenceCountMin(2, 8)
	ref.Add(42, math.MaxUint64-5)
	if got := ref.Add(42, 10); got != math.MaxUint64 {
		t.Fatalf("reference wrapped to %d", got)
	}
}

// TestCountMinWordsRoundTrip checks the snapshot mirror of Bloom's
// Words/SetWords: counters and the update count survive a round trip,
// and geometry mismatches are rejected instead of mis-hashing.
func TestCountMinWordsRoundTrip(t *testing.T) {
	cm := NewCountMin(3, 64)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		cm.Add(r.Uint64()%50, uint64(r.Intn(4)+1))
	}
	words, updates := cm.Words(), cm.Updates

	restored := NewCountMin(3, 64)
	if err := restored.SetWords(words, updates); err != nil {
		t.Fatal(err)
	}
	if restored.Updates != updates {
		t.Fatalf("Updates = %d, want %d", restored.Updates, updates)
	}
	for k := uint64(0); k < 50; k++ {
		if restored.Estimate(k) != cm.Estimate(k) {
			t.Fatalf("estimate for key %d diverged after restore", k)
		}
	}

	// Mutating the returned copy must not alias live counters.
	words[0] = math.MaxUint64
	if cm.counts[0] == math.MaxUint64 && cm.counts[0] != cm.Words()[0] {
		t.Fatal("Words aliases live counters")
	}

	wrong := NewCountMin(3, 65)
	if err := wrong.SetWords(words, updates); err == nil {
		t.Fatal("SetWords accepted a geometry mismatch")
	}
}
