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
// several widths down to a single line.
func TestTurboCountMinNeverUnderestimates(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		for _, cols := range []int{8, 512, 1024, 65536} {
			tc := NewTurboCountMin(cols, conservative)
			truth := map[uint64]uint64{}
			for _, k := range zipfStream(int64(4000+cols), 30_000) {
				tc.Add(k, 1)
				truth[k]++
			}
			for k, want := range truth {
				if got := tc.Estimate(k); got < want {
					t.Fatalf("4x%d cu=%v: estimate %d < truth %d for key %x",
						cols, conservative, got, want, k)
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
	vanilla := NewTurboCountMin(4096, false)
	cu := NewTurboCountMin(4096, true)
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
		vanilla := NewTurboCountMin(64, false)
		cu := NewTurboCountMin(64, true)
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
		tc := NewTurboCountMin(8, conservative)
		tc.Add(42, math.MaxUint64-5)
		if got := tc.Add(42, 10); got != math.MaxUint64 {
			t.Fatalf("cu=%v: Add past MaxUint64 returned %d", conservative, got)
		}
		if got := tc.Estimate(42); got != math.MaxUint64 {
			t.Fatalf("cu=%v: Estimate after saturation = %d", conservative, got)
		}
	}
}

// TestTurboGeometryRounding pins the power-of-two/minimum behavior the
// layout depends on.
func TestTurboGeometryRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 8}, {8, 8}, {9, 16}, {4096, 4096}, {65000, 65536},
	} {
		tc := NewTurboCountMin(c.in, false)
		if got := tc.Cols(); got != c.want {
			t.Fatalf("cols %d rounded to %d, want %d", c.in, got, c.want)
		}
		if got := len(tc.counts); got != c.want {
			t.Fatalf("cols %d: %d words, want one line of %d rows per 8 columns", c.in, got, c.want)
		}
	}
}

// TestLaneDistribution guards the subtle failure mode of the one-line
// layout: if the per-row lanes were derived from overlapping hash
// bits, a key's four rows would collapse onto the same counter and
// the sketch would silently behave as depth 1. Distinct keys must
// spread their rows over more than one lane: a vanilla add into an
// empty one-line sketch must move more than one counter.
func TestLaneDistribution(t *testing.T) {
	distinct := 0
	for key := uint64(0); key < 64; key++ {
		tc := NewTurboCountMin(8, false) // single line: every counter is a lane
		tc.Add(key, 1)
		moved := 0
		for _, w := range tc.counts {
			if w != 0 {
				moved++
			}
		}
		if moved > 1 {
			distinct++
		}
	}
	if distinct < 60 {
		t.Fatalf("only %d/64 keys spread across lanes; lane bits are not independent", distinct)
	}
}

// geometryForError sizes a sketch for additive error epsilon (as a
// fraction of the stream count) with failure probability delta, per
// Cormode–Muthukrishnan: cols = ceil(e/epsilon), rows = ceil(ln 1/delta).
func geometryForError(epsilon, delta float64) (rows, cols int) {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		panic("sketch: epsilon and delta must lie in (0, 1)")
	}
	cols = int(math.Ceil(math.E / epsilon))
	rows = int(math.Ceil(math.Log(1 / delta)))
	return rows, cols
}

// TestCountMinForErrorBound is the epsilon/delta accuracy contract at
// the turbo sketch's four rows: with cols = ceil(e/eps) and rows =
// ln 1/delta, the additive error over a stream of total weight N should
// exceed eps*N only with probability ~delta = e^-4 ≈ 1.8 %. We check
// that the large majority of keys sit within the bound — far more than
// the 1-delta guarantee — for both the compatible and turbo sketches.
func TestCountMinForErrorBound(t *testing.T) {
	const (
		epsilon = 0.005
		n       = 40_000
	)
	delta := math.Exp(-TurboRows)
	cols := int(math.Ceil(math.E / epsilon))
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

	cm := NewReferenceCountMin(TurboRows, cols)
	for _, k := range keys {
		cm.Add(k, 1)
	}
	check("CountMin", cm.Estimate)

	tc := NewTurboCountMin(cols, false)
	for _, k := range keys {
		tc.Add(k, 1)
	}
	check("TurboCountMin", tc.Estimate)
}
