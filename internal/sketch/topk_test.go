package sketch

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTopKFindsHeavyKeys feeds a stream with known heavy hitters and a
// long tail; the tracker must surface every heavy key, ranked by
// weight.
func TestTopKFindsHeavyKeys(t *testing.T) {
	tk := NewTopK(8, 4096, 1)
	r := rand.New(rand.NewSource(5))
	// Heavy keys 1..5 with clearly separated weights, plus 20k noise keys.
	heavy := map[uint64]uint64{1: 50_000, 2: 40_000, 3: 30_000, 4: 20_000, 5: 10_000}
	type obs struct{ k, w uint64 }
	var stream []obs
	for k, total := range heavy {
		for got := uint64(0); got < total; got += 500 {
			stream = append(stream, obs{k, 500})
		}
	}
	for i := 0; i < 20_000; i++ {
		stream = append(stream, obs{1000 + r.Uint64()%50_000, uint64(r.Intn(200) + 1)})
	}
	r.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	for _, o := range stream {
		tk.Offer(o.k, o.w)
	}

	top := tk.AppendTop(nil)
	rank := map[uint64]int{}
	for i, e := range top {
		rank[e.Key] = i
	}
	for k := uint64(1); k <= 5; k++ {
		i, ok := rank[k]
		if !ok {
			t.Fatalf("heavy key %d missing from top-%d: %v", k, tk.k, top)
		}
		// Weights are separated 10k apart; order must match.
		if i != int(k)-1 {
			t.Fatalf("heavy key %d ranked %d, want %d: %v", k, i, k-1, top)
		}
		if est := top[i].Count; est < heavy[k] {
			t.Fatalf("tracked count %d below true weight %d for key %d", est, heavy[k], k)
		}
	}
}

// TestTopKDeterminism: identical offer sequences into identically
// seeded trackers must produce identical rankings — the property the
// victim detector's CI determinism gate rests on.
func TestTopKDeterminism(t *testing.T) {
	run := func() []Element {
		tk := NewTopK(16, 1024, 42)
		r := rand.New(rand.NewSource(9))
		for i := 0; i < 50_000; i++ {
			tk.Offer(r.Uint64()%10_000, uint64(r.Intn(1500)+1))
		}
		return tk.AppendTop(nil)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestTopKPersistentChallengerGetsIn: a sustained new key must
// displace a stale incumbent — the est ≥ truth guarantee means its
// estimate eventually exceeds any finite incumbent count.
func TestTopKPersistentChallengerGetsIn(t *testing.T) {
	tk := NewTopK(2, 1024, 7)
	for i := 0; i < 200; i++ {
		tk.Offer(100, 1)
		tk.Offer(200, 1)
	}
	for i := 0; i < 2_000; i++ {
		tk.Offer(300, 1)
	}
	found := false
	for _, e := range tk.AppendTop(nil) {
		if e.Key == 300 {
			found = true
		}
	}
	if !found {
		t.Fatalf("sustained key 300 never displaced a stale incumbent: %+v", tk.AppendTop(nil))
	}
}

// TestTopKDecayEvictsStaleKeys exercises the exponential-decay path:
// low-count incumbents pounded by a stream of one-shot challengers
// (none of which can beat them on estimate alone) must decay and
// eventually be displaced. Decay probability at count ~30 is
// 1.08^-30 ≈ 10%, so a few hundred losing challengers suffice.
func TestTopKDecayEvictsStaleKeys(t *testing.T) {
	tk := NewTopK(2, 1024, 7)
	for i := 0; i < 30; i++ {
		tk.Offer(100, 1)
		tk.Offer(200, 1)
	}
	before := tk.AppendTop(nil)
	for i := uint64(0); i < 5_000; i++ {
		tk.Offer(1_000+i, 1) // distinct one-shot challengers
	}
	if tk.Decayed == 0 {
		t.Fatal("no decay events across 5000 losing challenges at ~10% decay probability")
	}
	after := tk.AppendTop(nil)
	displaced := false
	for _, e := range after {
		if e.Key != 100 && e.Key != 200 {
			displaced = true
		}
	}
	if !displaced {
		t.Fatalf("stale incumbents %+v survived 5000 challengers undecayed: %+v (decayed=%d)",
			before, after, tk.Decayed)
	}
}

// naiveTopK is the heavy-keeper without run coalescing: the same heap,
// pos map and decay stream, and one sketch update per offer. It is the
// oracle the run path is checked against; it never opens a run, so the
// TopK method it inherits, Reset, flushes nothing.
type naiveTopK struct{ TopK }

func (t *naiveTopK) Offer(key uint64, weight uint64) {
	est := t.cm.Add(key, weight)
	if i, ok := t.pos[key]; ok {
		e := &t.entries[i]
		e.count = satAdd(e.count, weight)
		t.siftDown(i)
		return
	}
	if len(t.entries) < t.k {
		t.entries = append(t.entries, tkEntry{key: key, count: est})
		t.pos[key] = len(t.entries) - 1
		t.siftUp(len(t.entries) - 1)
		return
	}
	min := &t.entries[0]
	if est > min.count {
		c := satAdd(min.count, weight)
		if est < c {
			c = est
		}
		delete(t.pos, min.key)
		min.key, min.count = key, c
		t.pos[key] = 0
		t.siftDown(0)
		return
	}
	c := min.count
	if c >= decayTableSize {
		c = decayTableSize - 1
	}
	if t.nextRand() < t.decayThresh[c] {
		t.Decayed++
		if min.count <= weight {
			delete(t.pos, min.key)
			min.key, min.count = key, est
			t.pos[key] = 0
			t.siftDown(0)
			return
		}
		min.count -= weight
	}
}

// topKPair drives a tracker and the naive oracle through the same
// stream. After every offer the two must hold the same entries in the
// same order, the same decay stream and the same Decayed count, and a
// tracked key must count exactly; every sketchEvery offers, and on
// demand, the sketches must match word for word and in Updates. The
// cadence is prime so checks land in the middle of runs, where the
// tracker's sketch has an update held back, and not after every offer,
// which would flush every run at its first offer.
type topKPair struct {
	t     *testing.T
	tk    *TopK
	plain *naiveTopK
	n     int
}

const sketchEvery = 61

func newTopKPair(t *testing.T, k int, seed uint64) *topKPair {
	return &topKPair{t: t, tk: NewTopK(k, 512, seed), plain: &naiveTopK{*NewTopK(k, 512, seed)}}
}

func (p *topKPair) offer(key, weight uint64) {
	p.t.Helper()
	tk := p.tk
	want, tracked := uint64(0), false
	if i, ok := tk.pos[key]; ok {
		want, tracked = satAdd(tk.entries[i].count, weight), true
	}
	tk.Offer(key, weight)
	p.plain.Offer(key, weight)

	if tracked {
		if i, ok := tk.pos[key]; !ok || tk.entries[i].count != want {
			p.t.Fatalf("tracked key %x: count after offer is not the exact %d (pos %d, %v)", key, want, i, ok)
		}
	}
	if len(tk.entries) != len(tk.pos) || len(tk.entries) != len(p.plain.entries) ||
		tk.rng != p.plain.rng || tk.Decayed != p.plain.Decayed {
		p.t.Fatalf("heap has %d entries, pos map %d, oracle %d (rng %x vs %x, decayed %d vs %d)",
			len(tk.entries), len(tk.pos), len(p.plain.entries), tk.rng, p.plain.rng, tk.Decayed, p.plain.Decayed)
	}
	for i, e := range tk.entries {
		if e != p.plain.entries[i] {
			p.t.Fatalf("entry %d is %+v, the oracle has %+v (offer %x/%d)", i, e, p.plain.entries[i], key, weight)
		}
		if tk.pos[e.key] != i {
			p.t.Fatalf("pos[%x] = %d, entry lives at %d", e.key, tk.pos[e.key], i)
		}
		if l := 2*i + 1; l < len(tk.entries) && tk.entries[l].count < e.count {
			p.t.Fatalf("min-heap violated at %d", i)
		}
		if rr := 2*i + 2; rr < len(tk.entries) && tk.entries[rr].count < e.count {
			p.t.Fatalf("min-heap violated at %d", i)
		}
	}
	if p.n++; p.n%sketchEvery == 0 {
		p.sameSketch()
	}
}

// sameSketch applies the tracker's open run (flush) and compares the two
// sketches counter for counter and in Updates.
func (p *topKPair) sameSketch() {
	p.t.Helper()
	p.tk.flush()
	got, want := p.tk.cm, p.plain.cm
	if got.Updates != want.Updates {
		p.t.Fatalf("sketch Updates %d, the oracle's %d (after %d offers)", got.Updates, want.Updates, p.n)
	}
	if !slices.Equal(got.counts, want.counts) {
		p.t.Fatalf("sketch words differ from the oracle's (after %d offers)", p.n)
	}
}

// TestTopKHeapInvariant checks the tracker against the naive oracle
// (see topKPair) on streams built to cut runs short: long runs of one
// key, the run's key evicted mid-run, Reset between runs, and a uniform
// stream with no runs.
func TestTopKHeapInvariant(t *testing.T) {
	t.Run("churn in runs", func(t *testing.T) {
		p := newTopKPair(t, 32, 3)
		r := rand.New(rand.NewSource(77))
		for i := 0; i < 20_000; i++ {
			key, w := r.Uint64()%500, uint64(r.Intn(100)+1)
			for n := r.Intn(8); n >= 0; n-- {
				p.offer(key, w)
			}
		}
		p.sameSketch()
	})
	t.Run("evicted mid-run by decay", func(t *testing.T) {
		p := newTopKPair(t, 2, 7)
		r := rand.New(rand.NewSource(78))
		evictions := 0
		for round := uint64(0); round < 200; round++ {
			run, heavy := 1000+round, 5000+round
			p.offer(heavy, 1_000)
			for i := 0; i < 3; i++ {
				p.offer(run, 1) // the remembered slot now holds run
			}
			// One-packet challengers lose to run's count and decay it
			// away; its slot goes to one of them.
			for i := 0; i < 40; i++ {
				p.offer(1_000_000+uint64(r.Intn(1<<20)), 1)
			}
			if _, ok := p.tk.pos[run]; !ok {
				evictions++
			}
			for i := 0; i < 3; i++ {
				p.offer(run, 1) // back as a challenger, or still tracked
			}
		}
		if evictions == 0 {
			t.Fatal("no run key was ever evicted mid-run: the stream does not test a stale slot")
		}
		p.sameSketch()
	})
	t.Run("reset between runs", func(t *testing.T) {
		p := newTopKPair(t, 8, 9)
		r := rand.New(rand.NewSource(79))
		beyond := 0
		for round := 0; round < 200; round++ {
			for i := 0; i < 50; i++ {
				key, w := r.Uint64()%20, uint64(r.Intn(50)+1)
				p.offer(key, w)
				p.offer(key, w)
			}
			if p.tk.last > 0 {
				beyond++ // a slot the emptied heap does not have
			}
			p.tk.Reset()
			p.plain.Reset()
		}
		if beyond == 0 {
			t.Fatal("never reset with a remembered slot beyond the first")
		}
	})
	t.Run("uniform without runs", func(t *testing.T) {
		p := newTopKPair(t, 16, 13)
		r := rand.New(rand.NewSource(80))
		for i := 0; i < 20_000; i++ {
			p.offer(r.Uint64()%5_000, uint64(r.Intn(1500)+1))
		}
		p.sameSketch()
	})
}

// FuzzTopKRuns checks the run path against the naive oracle on streams
// drawn from an eight-key alphabet into a four-entry tracker, so runs,
// admissions, decay and evictions all occur. Each input byte pair is one
// offer: the first byte's low three bits pick the key, its top three
// bits shift the second byte's weight up to 2^56 so counters saturate,
// and its two middle bits, when both set, also compare the sketches
// (which applies the open run) after the offer.
func FuzzTopKRuns(f *testing.F) {
	f.Add(uint64(1), []byte{1, 9, 1, 9, 1, 9, 2, 5, 1, 9, 0x19, 3, 1, 1})
	f.Add(uint64(7), []byte{0xe1, 0xff, 0xe1, 0xff, 0xe1, 0xff, 0xe2, 0xff, 0xe1, 0xff})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		p := newTopKPair(t, 4, seed)
		for i := 0; i+1 < len(ops); i += 2 {
			b := ops[i]
			p.offer(uint64(b&7), uint64(ops[i+1])<<(8*(b>>5)))
			if b&0x18 == 0x18 {
				p.sameSketch()
			}
		}
		p.sameSketch()
	})
}

// TestTopKAppendTopReusesBuffer: the polling path must not allocate
// once the destination has capacity.
func TestTopKAppendTopReusesBuffer(t *testing.T) {
	tk := NewTopK(8, 512, 1)
	for k := uint64(0); k < 20; k++ {
		tk.Offer(k, (k+1)*10)
	}
	buf := make([]Element, 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		buf = tk.AppendTop(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendTop allocated %.1f/op with a pre-sized buffer", allocs)
	}
	want := tk.AppendTop(nil)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("AppendTop[%d] = %+v, a fresh AppendTop gave %+v", i, buf[i], want[i])
		}
	}
}

// TestTopKResetClears: a reset tracker starts a fresh window but keeps
// its RNG stream (windows are deterministic as a sequence).
func TestTopKResetClears(t *testing.T) {
	tk := NewTopK(4, 512, 1)
	for k := uint64(0); k < 10; k++ {
		tk.Offer(k, 100)
	}
	rngBefore := tk.rng
	tk.Reset()
	if len(tk.entries) != 0 || len(tk.pos) != 0 || tk.Decayed != 0 {
		t.Fatal("Reset left tracker state behind")
	}
	if tk.cm.Estimate(3) != 0 {
		t.Fatal("Reset left sketch counters behind")
	}
	if tk.rng != rngBefore {
		t.Fatal("Reset rewound the decay RNG")
	}
}
