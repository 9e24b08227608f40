package sketch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// zipfStream returns a deterministic skewed key stream: a few heavy
// keys and a long tail, the regime Jaqen's sketch actually sees.
func zipfStream(seed int64, n int) []uint64 {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.2, 1.0, 1<<20)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = z.Uint64()
	}
	return keys
}

// TestTurboCountMinNeverUnderestimates is the count-min safety
// property: for every key of the stream, the turbo estimate must be ≥
// the true count, in both vanilla and conservative-update modes, at
// several geometries including a multi-block depth.
func TestTurboCountMinNeverUnderestimates(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		for _, g := range []struct{ rows, cols int }{
			{1, 8}, {4, 1024}, {4, 65536}, {12, 512},
		} {
			tc := NewTurboCountMin(g.rows, g.cols, conservative)
			truth := map[uint64]uint64{}
			for _, k := range zipfStream(int64(g.rows*1000+g.cols), 30_000) {
				tc.Add(k, 1)
				truth[k]++
			}
			for k, want := range truth {
				if got := tc.Estimate(k); got < want {
					t.Fatalf("%dx%d cu=%v: estimate %d < truth %d for key %x",
						g.rows, g.cols, conservative, got, want, k)
				}
			}
		}
	}
}

// TestConservativeUpdateNeverExceedsVanilla checks the invariant that
// makes conservative update safe to enable: on the same stream the CU
// estimate of every key is ≤ the vanilla estimate (pointwise tighter,
// never looser), while both stay ≥ truth.
func TestConservativeUpdateNeverExceedsVanilla(t *testing.T) {
	vanilla := NewTurboCountMin(4, 4096, false)
	cu := NewTurboCountMin(4, 4096, true)
	truth := map[uint64]uint64{}
	for _, k := range zipfStream(99, 50_000) {
		vanilla.Add(k, 1)
		cu.Add(k, 1)
		truth[k]++
	}
	tightened := 0
	for k, want := range truth {
		v, c := vanilla.Estimate(k), cu.Estimate(k)
		if c > v {
			t.Fatalf("CU estimate %d exceeds vanilla %d for key %x", c, v, k)
		}
		if c < want {
			t.Fatalf("CU estimate %d below truth %d for key %x", c, want, k)
		}
		if c < v {
			tightened++
		}
	}
	// On a 50k-update Zipf stream into 4x4096 there are plenty of
	// collisions; CU must actually tighten some of them, otherwise the
	// mode is wired wrong (e.g. silently ignored).
	if tightened == 0 {
		t.Fatal("conservative update tightened no estimates on a colliding stream")
	}
}

// Property variant over arbitrary streams: est ≥ truth and CU ≤
// vanilla must hold for every seed, not just the fixtures above.
func TestQuickTurboInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vanilla := NewTurboCountMin(3, 64, false)
		cu := NewTurboCountMin(3, 64, true)
		truth := map[uint64]uint64{}
		for i := 0; i < 500; i++ {
			k := r.Uint64() % 200 // force collisions in the tiny sketch
			d := uint64(r.Intn(5) + 1)
			vanilla.Add(k, d)
			cu.Add(k, d)
			truth[k] += d
		}
		for k, want := range truth {
			v, c := vanilla.Estimate(k), cu.Estimate(k)
			if v < want || c < want || c > v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(40)); err != nil {
		t.Fatal(err)
	}
}

// TestTurboCountMinSaturates mirrors the CountMin overflow regression
// for both turbo modes.
func TestTurboCountMinSaturates(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		tc := NewTurboCountMin(2, 8, conservative)
		tc.Add(42, math.MaxUint64-5)
		if got := tc.Add(42, 10); got != math.MaxUint64 {
			t.Fatalf("cu=%v: Add past MaxUint64 returned %d", conservative, got)
		}
		if got := tc.Estimate(42); got != math.MaxUint64 {
			t.Fatalf("cu=%v: Estimate after saturation = %d", conservative, got)
		}
	}
}

// TestTurboCountMinWordsRoundTrip checks the turbo snapshot mirror.
func TestTurboCountMinWordsRoundTrip(t *testing.T) {
	tc := NewTurboCountMin(4, 1024, true)
	for _, k := range zipfStream(3, 5_000) {
		tc.Add(k, 2)
	}
	restored := NewTurboCountMin(4, 1024, true)
	if err := restored.SetWords(tc.Words(), tc.Updates); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		if restored.Estimate(k) != tc.Estimate(k) {
			t.Fatalf("estimate for key %d diverged after restore", k)
		}
	}
	wrong := NewTurboCountMin(4, 2048, true)
	if err := wrong.SetWords(tc.Words(), tc.Updates); err == nil {
		t.Fatal("SetWords accepted a geometry mismatch")
	}
}

// TestTurboGeometryRounding pins the power-of-two/minimum behavior the
// layout depends on.
func TestTurboGeometryRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 8}, {8, 8}, {9, 16}, {4096, 4096}, {65000, 65536},
	} {
		if got := NewTurboCountMin(4, c.in, false).Cols(); got != c.want {
			t.Fatalf("cols %d rounded to %d, want %d", c.in, got, c.want)
		}
	}
	// 12 rows -> 2 blocks of cols counters each.
	tc := NewTurboCountMin(12, 1024, false)
	if got, want := tc.FootprintBytes(), 2*1024*8; got != want {
		t.Fatalf("FootprintBytes = %d, want %d", got, want)
	}
}

// TestLaneDistribution guards the subtle failure mode of the blocked
// layout: if the per-row lanes were derived from overlapping hash
// bits, all rows of a block would collapse onto the same counter and
// the sketch would silently behave as depth 1. Distinct keys must
// spread a block's 8 rows over multiple lanes.
func TestLaneDistribution(t *testing.T) {
	tc := NewTurboCountMin(8, 8, false) // single line: index = lane per row
	distinct := 0
	for key := uint64(0); key < 64; key++ {
		h1, h2 := hashPair(key)
		_ = h2
		lanes := map[int]bool{}
		for r := 0; r < 8; r++ {
			lanes[tc.index(r, h1)] = true
		}
		if len(lanes) > 1 {
			distinct++
		}
	}
	if distinct < 60 {
		t.Fatalf("only %d/64 keys spread across lanes; lane bits are not independent", distinct)
	}
}

// TestCountMinForErrorBound is the epsilon/delta accuracy contract:
// with cols = ceil(e/eps) and rows = ceil(ln 1/delta), the additive
// error over a stream of total weight N should exceed eps*N only with
// probability ~delta. We check that the large majority of keys sit
// within the bound — far more than the 1-delta guarantee — for both
// the compatible and turbo sizings.
func TestCountMinForErrorBound(t *testing.T) {
	const (
		epsilon = 0.005
		delta   = 0.01
		n       = 40_000
	)
	keys := zipfStream(21, n)

	check := func(name string, est func(uint64) uint64) {
		truth := map[uint64]uint64{}
		for _, k := range keys {
			truth[k]++
		}
		bound := uint64(math.Ceil(epsilon * float64(n)))
		bad := 0
		for k, want := range truth {
			got := est(k)
			if got < want {
				t.Fatalf("%s: underestimate %d < %d", name, got, want)
			}
			if got-want > bound {
				bad++
			}
		}
		// Allow 5x the nominal failure probability as test slack.
		if limit := int(5*delta*float64(len(truth))) + 1; bad > limit {
			t.Fatalf("%s: %d/%d keys exceed the eps*N=%d error bound (limit %d)",
				name, bad, len(truth), bound, limit)
		}
	}

	cm := NewReferenceCountMin(geometryForError(epsilon, delta))
	for _, k := range keys {
		cm.Add(k, 1)
	}
	check("CountMin", cm.Estimate)

	tc := NewTurboCountMinForError(epsilon, delta, false)
	for _, k := range keys {
		tc.Add(k, 1)
	}
	check("TurboCountMin", tc.Estimate)
}

// TestTurboDepthCap: ln(1/delta) sizing must clamp to the 64-row stack
// bound instead of panicking for absurd delta.
func TestTurboDepthCap(t *testing.T) {
	tc := NewTurboCountMinForError(0.01, 1e-30, false)
	if tc.Rows() != maxTurboRows {
		t.Fatalf("rows = %d, want clamp at %d", tc.Rows(), maxTurboRows)
	}
}
