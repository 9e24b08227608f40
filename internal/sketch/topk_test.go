package sketch

import (
	"math/rand"
	"testing"
)

// TestTopKFindsHeavyKeys feeds a stream with known heavy hitters and a
// long tail; the tracker must surface every heavy key, ranked by
// weight.
func TestTopKFindsHeavyKeys(t *testing.T) {
	tk := NewTopK(8, 4, 4096, 1)
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
			t.Fatalf("heavy key %d missing from top-%d: %v", k, tk.K(), top)
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
		tk := NewTopK(16, 4, 1024, 42)
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
	tk := NewTopK(2, 4, 1024, 7)
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
	tk := NewTopK(2, 4, 1024, 7)
	for i := 0; i < 30; i++ {
		tk.Offer(100, 1)
		tk.Offer(200, 1)
	}
	before := tk.Entries()
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

// topKPair drives a tracker and its memo-free model through the same
// stream. The model is a second TopK whose remembered slot is pushed out
// of range before every offer, so it always takes the pos-map path the
// tracker took before it remembered anything; the two must stay
// identical entry for entry, and a tracked key must count exactly.
type topKPair struct {
	t         *testing.T
	tk, plain *TopK
}

func newTopKPair(t *testing.T, k int, seed uint64) *topKPair {
	return &topKPair{t: t, tk: NewTopK(k, 4, 512, seed), plain: NewTopK(k, 4, 512, seed)}
}

func (p *topKPair) offer(key, weight uint64) {
	p.t.Helper()
	tk := p.tk
	want, tracked := uint64(0), false
	if i, ok := tk.pos[key]; ok {
		want, tracked = tk.entries[i].count+weight, true
	}
	tk.Offer(key, weight)
	p.plain.last = -1
	p.plain.Offer(key, weight)

	if tracked {
		if i, ok := tk.pos[key]; !ok || tk.entries[i].count != want {
			p.t.Fatalf("tracked key %x: count after offer is not the exact %d (pos %d, %v)", key, want, i, ok)
		}
	}
	if len(tk.entries) != len(tk.pos) || len(tk.entries) != len(p.plain.entries) || tk.rng != p.plain.rng {
		p.t.Fatalf("heap has %d entries, pos map %d, model %d (rng %x vs %x)",
			len(tk.entries), len(tk.pos), len(p.plain.entries), tk.rng, p.plain.rng)
	}
	for i, e := range tk.entries {
		if e != p.plain.entries[i] {
			p.t.Fatalf("entry %d is %+v, the memo-free model has %+v (offer %x/%d)", i, e, p.plain.entries[i], key, weight)
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
}

// TestTopKHeapInvariant checks pos-map/heap consistency and exact
// tracked counts after every offer, on streams built to leave the
// remembered heap slot stale: long runs of one key, the run's key
// evicted mid-run, Reset between runs, and Restore into fewer entries
// than the remembered index.
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
	t.Run("restore below the remembered slot", func(t *testing.T) {
		p := newTopKPair(t, 8, 11)
		for key := uint64(1); key <= 8; key++ {
			p.offer(key, key*10)
		}
		// Growing key 1 sinks it to the bottom row of the heap.
		for i := 0; i < 20; i++ {
			p.offer(1, 100)
		}
		if p.tk.last < 3 {
			t.Fatalf("remembered slot %d, want one beyond a 3-entry heap", p.tk.last)
		}
		for _, keep := range [][]Element{
			{{Key: 40, Count: 7}, {Key: 41, Count: 5}, {Key: 1, Count: 9}}, // shorter than the slot
			p.tk.Entries(), // same length, the slot may hold another key
		} {
			p.tk.Restore(keep, 99)
			p.plain.Restore(keep, 99)
			for i := 0; i < 10; i++ {
				p.offer(1, 3)
				p.offer(41, 2)
			}
		}
	})
}

// TestTopKRestoreRoundTrip: Entries/RNG → Restore must reproduce the
// tracker exactly, including subsequent behavior.
func TestTopKRestoreRoundTrip(t *testing.T) {
	tk := NewTopK(8, 4, 512, 11)
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 30_000; i++ {
		tk.Offer(r.Uint64()%2_000, uint64(r.Intn(50)+1))
	}

	clone := NewTopK(8, 4, 512, 0)
	if err := clone.Sketch().SetWords(tk.Sketch().Words(), tk.Sketch().Updates); err != nil {
		t.Fatal(err)
	}
	clone.Restore(tk.Entries(), tk.RNG())

	// Same state now...
	a, b := tk.AppendTop(nil), clone.AppendTop(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d diverged after restore: %+v vs %+v", i, a[i], b[i])
		}
	}
	// ...and same behavior going forward (RNG state included).
	for i := 0; i < 10_000; i++ {
		k, w := r.Uint64()%2_000, uint64(r.Intn(50)+1)
		tk.Offer(k, w)
		clone.Offer(k, w)
	}
	a, b = tk.AppendTop(nil), clone.AppendTop(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d diverged after post-restore offers: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestTopKAppendTopReusesBuffer: the polling path must not allocate
// once the destination has capacity.
func TestTopKAppendTopReusesBuffer(t *testing.T) {
	tk := NewTopK(8, 4, 512, 1)
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
	tk := NewTopK(4, 4, 512, 1)
	for k := uint64(0); k < 10; k++ {
		tk.Offer(k, 100)
	}
	rngBefore := tk.RNG()
	tk.Reset()
	if tk.Len() != 0 || len(tk.pos) != 0 || tk.Decayed != 0 {
		t.Fatal("Reset left tracker state behind")
	}
	if tk.Sketch().Estimate(3) != 0 {
		t.Fatal("Reset left sketch counters behind")
	}
	if tk.RNG() != rngBefore {
		t.Fatal("Reset rewound the decay RNG")
	}
}
