package victim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// feedWindow pushes a deterministic window of traffic: each entry of
// heavy gets its byte volume in 1 KiB observations, plus background
// noise over a wide key range.
func feedWindow(d *Detector, r *rand.Rand, heavy map[uint64]uint64, noiseBytes uint64) {
	type obs struct{ k, b uint64 }
	var all []obs
	for k, total := range heavy {
		for got := uint64(0); got < total; got += 1024 {
			all = append(all, obs{k, 1024})
		}
	}
	for got := uint64(0); got < noiseBytes; got += 512 {
		all = append(all, obs{0x10000 + r.Uint64()%5000, 512})
	}
	r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, o := range all {
		d.Observe(o.k, o.b)
	}
}

func TestDetectorListsDominantDestination(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	// Destination 7 takes ~60% of the window; noise takes the rest.
	feedWindow(d, r, map[uint64]uint64{7: 600_000}, 400_000)
	vs := d.Advance()
	if len(vs) != 1 || vs[0].Key != 7 {
		t.Fatalf("victims = %+v, want exactly dst 7", vs)
	}
	if vs[0].Share < 0.5 {
		t.Fatalf("share = %v, want ≥ 0.5", vs[0].Share)
	}
	if vs[0].Windows != 1 {
		t.Fatalf("windows = %d, want 1", vs[0].Windows)
	}
}

func TestDetectorHysteresis(t *testing.T) {
	cfg := DefaultConfig() // activate 0.20, release 0.10
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))

	// Window 1: dst 9 at 30% — activates.
	feedWindow(d, r, map[uint64]uint64{9: 300_000}, 700_000)
	if vs := d.Advance(); len(vs) != 1 || vs[0].Key != 9 {
		t.Fatalf("window 1: victims = %+v, want dst 9", vs)
	}
	// Window 2: dst 9 sags to ~14% — inside the hysteresis band, stays
	// listed (a fresh destination at 14% would NOT activate).
	feedWindow(d, r, map[uint64]uint64{9: 140_000}, 860_000)
	vs := d.Advance()
	if len(vs) != 1 || vs[0].Key != 9 {
		t.Fatalf("window 2: victims = %+v, want dst 9 held by hysteresis", vs)
	}
	if vs[0].Windows != 2 {
		t.Fatalf("window 2: streak = %d, want 2", vs[0].Windows)
	}
	// A different destination at the same 14% share does not activate.
	feedWindow(d, r, map[uint64]uint64{9: 140_000, 11: 140_000}, 720_000)
	vs = d.Advance()
	if len(vs) != 1 || vs[0].Key != 9 {
		t.Fatalf("window 3: victims = %+v, want only the held dst 9", vs)
	}
	// Window 4: dst 9 collapses below release — delisted, streak gone.
	feedWindow(d, r, map[uint64]uint64{9: 50_000}, 950_000)
	if vs := d.Advance(); len(vs) != 0 {
		t.Fatalf("window 4: victims = %+v, want none", vs)
	}
	// Re-activation starts a fresh streak.
	feedWindow(d, r, map[uint64]uint64{9: 300_000}, 700_000)
	if vs := d.Advance(); len(vs) != 1 || vs[0].Windows != 1 {
		t.Fatalf("window 5: victims = %+v, want dst 9 with streak 1", vs)
	}
}

func TestDetectorIdleWindowKeepsState(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	feedWindow(d, r, map[uint64]uint64{5: 500_000}, 500_000)
	d.Advance()
	// An (almost) empty window must not delist the victim.
	d.Observe(123, 64)
	vs := d.Advance()
	if len(vs) != 1 || vs[0].Key != 5 {
		t.Fatalf("idle window cleared victims: %+v", vs)
	}
}

func TestDetectorDeterminism(t *testing.T) {
	run := func() []Victim {
		d, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(4))
		var last []Victim
		for w := 0; w < 5; w++ {
			heavy := map[uint64]uint64{
				uint64(100 + w%3): 400_000,
				uint64(200):       250_000,
			}
			feedWindow(d, r, heavy, 350_000)
			last = d.Advance()
		}
		return last
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("victim %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestDetectorConcurrentObserve is the ownership contract under -race:
// one goroutine owns Observe/Advance, any number of others read
// Victims/Windows while it runs. Readers only ever see a closed
// window's result — Windows monotone, every listed share inside the
// hysteresis band — and once the writer stops they read exactly what a
// detector fed the same sequence with nobody watching reads.
func TestDetectorConcurrentObserve(t *testing.T) {
	const windows = 24
	cfg := DefaultConfig()
	run := func(d *Detector) {
		r := rand.New(rand.NewSource(5))
		for w := 0; w < windows; w++ {
			// The attack moves between two destinations and pauses on
			// every sixth window, so lists change, persist and go idle.
			heavy := map[uint64]uint64{uint64(0xC0A80001 + w/8%2): 60_000}
			if w%6 == 5 {
				heavy = nil
			}
			feedWindow(d, r, heavy, 40_000*uint64(len(heavy)))
			d.Advance()
		}
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				w := d.Windows()
				if w < last {
					t.Errorf("Windows went backwards: %d after %d", w, last)
					return
				}
				last = w
				for _, v := range d.Victims() {
					if v.Share < ReleaseShare || v.Windows < 1 {
						t.Errorf("reader saw %+v below the release share %v", v, ReleaseShare)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	run(d)
	close(stop)
	wg.Wait()

	alone, _ := New(cfg)
	run(alone)
	if d.Windows() != windows || alone.Windows() != windows {
		t.Fatalf("Windows = %d watched, %d alone, want %d", d.Windows(), alone.Windows(), windows)
	}
	if got, want := d.Victims(), alone.Victims(); !reflect.DeepEqual(got, want) || len(want) == 0 {
		t.Fatalf("victims with readers %+v, alone %+v", got, want)
	}
	if got := d.windowBytes; got != 0 {
		t.Fatalf("pending bytes after Advance = %d", got)
	}
}

// TestConfigValidation: TopK must be positive and at most the sketch
// width, which bounds what New preallocates.
func TestConfigValidation(t *testing.T) {
	for _, k := range []int{0, -1, sketchCols + 1, 1_000_000_000} {
		if d, err := New(Config{TopK: k}); err == nil || d != nil {
			t.Fatalf("TopK %d: New = (%v, %v), want only an error", k, d, err)
		}
	}
	for _, k := range []int{1, DefaultConfig().TopK, sketchCols} {
		if _, err := New(Config{TopK: k}); err != nil {
			t.Fatalf("TopK %d rejected: %v", k, err)
		}
	}
}
