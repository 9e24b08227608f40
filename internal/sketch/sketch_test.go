package sketch

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// quickConfig fixes the generator of a quick.Check, so a failing input
// is the same on every run.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewReferenceCountMin(4, 512)
	truth := map[uint64]uint64{}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 10_000; i++ {
		k := uint64(r.Intn(2000))
		truth[k]++
		cm.Add(k, 1)
	}
	for k, want := range truth {
		if got := cm.Estimate(k); got < want {
			t.Fatalf("key %d: estimate %d < truth %d", k, got, want)
		}
	}
	if cm.Updates != 10_000 {
		t.Fatalf("Updates = %d", cm.Updates)
	}
}

func TestCountMinHeavyHitterAccuracy(t *testing.T) {
	cm := NewReferenceCountMin(geometryForError(0.001, 0.01))
	r := rand.New(rand.NewSource(7))
	// One heavy key among uniform noise.
	const heavy = uint64(0xdeadbeef)
	for i := 0; i < 50_000; i++ {
		cm.Add(uint64(r.Intn(100_000))+1_000_000, 1)
	}
	for i := 0; i < 5_000; i++ {
		cm.Add(heavy, 1)
	}
	got := cm.Estimate(heavy)
	// epsilon=0.001 over 55k updates allows +55 error.
	if got < 5000 || got > 5000+100 {
		t.Fatalf("heavy hitter estimate %d, want ~5000", got)
	}
}

func TestCountMinAddReturnsEstimate(t *testing.T) {
	cm := NewReferenceCountMin(3, 1024)
	var last uint64
	for i := 0; i < 10; i++ {
		last = cm.Add(99, 1)
	}
	if last != cm.Estimate(99) {
		t.Fatalf("Add returned %d, Estimate %d", last, cm.Estimate(99))
	}
	if last < 10 {
		t.Fatalf("estimate %d below truth 10", last)
	}
}

func TestCountMinReset(t *testing.T) {
	cm := NewReferenceCountMin(2, 64)
	cm.Add(1, 5)
	cm.Reset()
	if cm.Estimate(1) != 0 || cm.Updates != 0 {
		t.Fatal("reset did not clear sketch")
	}
}

// TestCountMinSaturatesInsteadOfWrapping is the overflow regression: a
// counter pushed past MaxUint64 must pin there, not wrap to a small
// value that would silently become the row minimum and poison every
// estimate sharing the counter.
func TestCountMinSaturatesInsteadOfWrapping(t *testing.T) {
	cm := NewReferenceCountMin(2, 8)
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
}

func TestCountMinGeometryValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewReferenceCountMin(0, 10) },
		func() { NewReferenceCountMin(10, 0) },
		func() { geometryForError(0, 0.1) },
		func() { geometryForError(0.1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// bloom1k is a filter sized for 1000 keys at a 1% false-positive rate:
// m = -n ln(fp) / ln²2 bits and k = m/n ln 2 hashes.
func bloom1k() *Bloom { return NewBloom(9586, 7) }

func TestBloomNoFalseNegatives(t *testing.T) {
	b := bloom1k()
	for i := uint64(0); i < 1000; i++ {
		b.Insert(i * 2654435761)
	}
	for i := uint64(0); i < 1000; i++ {
		if !b.Contains(i * 2654435761) {
			t.Fatalf("false negative for element %d", i)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := bloom1k()
	r := rand.New(rand.NewSource(3))
	inserted := map[uint64]bool{}
	for len(inserted) < 1000 {
		k := r.Uint64()
		inserted[k] = true
		b.Insert(k)
	}
	fp := 0
	const probes = 20_000
	for i := 0; i < probes; i++ {
		k := r.Uint64()
		if inserted[k] {
			continue
		}
		if b.Contains(k) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 { // 3x slack over the 1% design point
		t.Fatalf("false positive rate %v too high", rate)
	}
}

func TestBloomResetAndFillRatio(t *testing.T) {
	b := NewBloom(1024, 3)
	if b.Contains(123) {
		t.Fatal("fresh filter not empty")
	}
	b.Insert(123)
	if !b.Contains(123) {
		t.Fatal("inserted key not found")
	}
	b.Reset()
	if b.Contains(123) || slices.ContainsFunc(b.bits, func(w uint64) bool { return w != 0 }) {
		t.Fatal("reset did not clear filter")
	}
}

func TestBloomGeometryValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewBloom(0, 3) },
		func() { NewBloom(64, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHashBytesDiffers(t *testing.T) {
	a := HashBytes(1, []byte("hello"))
	b := HashBytes(1, []byte("hellp"))
	c := HashBytes(2, []byte("hello"))
	if a == b || a == c {
		t.Fatalf("hash collisions in trivial cases: %x %x %x", a, b, c)
	}
}

// Property: estimates are monotone in updates and always >= truth.
func TestQuickCountMinOverestimate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cm := NewReferenceCountMin(3, 128)
		truth := map[uint64]uint64{}
		for i := 0; i < 500; i++ {
			k := uint64(r.Intn(200))
			d := uint64(r.Intn(5) + 1)
			truth[k] += d
			cm.Add(k, d)
		}
		for k, want := range truth {
			if cm.Estimate(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// Property: Bloom filters never produce false negatives.
func TestQuickBloomNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		if len(keys) == 0 {
			return true
		}
		b := NewBloom(uint64(7*len(keys)), 4) // ~5% false positives
		for _, k := range keys {
			b.Insert(k)
		}
		for _, k := range keys {
			if !b.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBloomInsertContains(b *testing.B) {
	bl := NewBloom(1<<16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bl.Insert(uint64(i))
		bl.Contains(uint64(i))
	}
}
