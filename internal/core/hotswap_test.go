package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHotSwapStress hammers one Hot with concurrent writers and readers
// under -race. Every published slice is self-consistent (all elements
// carry the same stamp), so a reader observing a mixed slice would mean
// a torn swap; generations must be monotonic from any single reader's
// point of view.
func TestHotSwapStress(t *testing.T) {
	const (
		writers = 4
		readers = 4
		stores  = 2000
	)
	var h Hot[[]uint64]
	seed := make([]uint64, 8)
	h.Store(&seed)

	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < stores; i++ {
				stamp := uint64(w)<<32 | uint64(i)
				v := make([]uint64, 8)
				for j := range v {
					v[j] = stamp
				}
				h.Store(&v)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastGen := uint64(0)
			for !stop.Load() {
				v := *h.Load()
				for j := 1; j < len(v); j++ {
					if v[j] != v[0] {
						t.Errorf("torn read: %v", v)
						return
					}
				}
				g := h.Generation()
				if g < lastGen {
					t.Errorf("generation went backwards: %d -> %d", lastGen, g)
					return
				}
				lastGen = g
				runtime.Gosched()
			}
		}()
	}
	// Wait for the writers by polling the generation; once all stores
	// have landed, stop the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for h.Generation() < uint64(writers*stores)+1 {
		runtime.Gosched()
	}
	stop.Store(true)
	<-done

	if got, want := h.Generation(), uint64(writers*stores)+1; got != want {
		t.Fatalf("generation = %d, want %d (one per Store)", got, want)
	}
}

// TestHotZeroAndNil pins the edge semantics: a zero Hot loads nil at
// generation 0, and Store(nil) panics instead of publishing a value
// readers would crash on.
func TestHotZeroAndNil(t *testing.T) {
	var h Hot[int]
	if h.Load() != nil {
		t.Fatal("zero Hot should load nil")
	}
	if h.Generation() != 0 {
		t.Fatalf("zero Hot generation = %d", h.Generation())
	}
	v := 7
	if gen := h.Store(&v); gen != 1 {
		t.Fatalf("first Store returned generation %d, want 1", gen)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Store(nil) did not panic")
		}
	}()
	h.Store(nil)
}

// TestHotLoadZeroAlloc: BenchmarkHotLoad's read allocates nothing.
func TestHotLoadZeroAlloc(t *testing.T) {
	var h Hot[[]int]
	v := make([]int, 16)
	h.Store(&v)
	i, sink := 0, 0
	if a := testing.AllocsPerRun(1000, func() { sink += (*h.Load())[i&15]; i++ }); a != 0 {
		t.Fatalf("Hot.Load allocates %v per read, want 0", a)
	}
	_ = sink
}

// BenchmarkHotLoad measures the hot-path read: one atomic pointer load,
// the cost every packet pays to see the live queue mapping and every
// control-loop tick pays to see the live runtime config.
func BenchmarkHotLoad(b *testing.B) {
	var h Hot[[]int]
	v := make([]int, 16)
	h.Store(&v)
	var sink int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += (*h.Load())[i&15]
	}
	_ = sink
}
