package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRoundedCapacity: capacities round up to the next power of two.
// push pushes and publishes one item.
func push[T any](r *SPSC[T], v T) bool {
	ok := r.Push(v)
	r.Publish()
	return ok
}

// pop takes the next published item, if any.
func pop[T any](r *SPSC[T]) (T, bool) {
	var one [1]T
	n := r.PopBatch(one[:])
	return one[0], n == 1
}

func TestRoundedCapacity(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024},
	} {
		if got := New[int](tc.ask).Cap(); got != tc.want {
			t.Fatalf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

// TestFIFOOrderAndWraparound pushes far more items than the capacity so
// the position counters lap the buffer many times; every item must come
// out once, in order.
func TestFIFOOrderAndWraparound(t *testing.T) {
	r := New[int](8)
	next := 0
	popped := 0
	for popped < 10_000 {
		for push(r, next) {
			next++
		}
		if r.Len() != r.Cap() {
			t.Fatalf("after filling, Len() = %d, want %d", r.Len(), r.Cap())
		}
		for {
			v, ok := pop(r)
			if !ok {
				break
			}
			if v != popped {
				t.Fatalf("popped %d, want %d", v, popped)
			}
			popped++
		}
	}
}

// TestBatchedPublish: pushed items stay invisible until Publish, then
// all appear at once; PopBatch drains them in order.
func TestBatchedPublish(t *testing.T) {
	r := New[int](16)
	for i := 0; i < 5; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if int(r.ptail-r.tail.Load()) != 5 {
		t.Fatalf("pending = %d, want 5", int(r.ptail-r.tail.Load()))
	}
	if _, ok := pop(r); ok {
		t.Fatal("unpublished item was visible")
	}
	r.Publish()
	if int(r.ptail-r.tail.Load()) != 0 {
		t.Fatalf("pending after Publish = %d, want 0", int(r.ptail-r.tail.Load()))
	}
	dst := make([]int, 8)
	if n := r.PopBatch(dst); n != 5 {
		t.Fatalf("PopBatch = %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if dst[i] != i {
			t.Fatalf("dst[%d] = %d", i, dst[i])
		}
	}
	if n := r.PopBatch(dst); n != 0 {
		t.Fatalf("PopBatch on empty = %d", n)
	}
}

// TestPushFullCountsUnpublished: unpublished items occupy capacity, and
// a full ring rejects pushes without corrupting buffered items.
func TestPushFullCountsUnpublished(t *testing.T) {
	r := New[int](4)
	for i := 0; i < r.Cap(); i++ {
		if !r.Push(i) {
			t.Fatalf("push %d on empty ring failed", i)
		}
	}
	if r.Push(99) {
		t.Fatal("push into full ring succeeded")
	}
	r.Publish()
	for i := 0; i < r.Cap(); i++ {
		v, ok := pop(r)
		if !ok || v != i {
			t.Fatalf("pop %d: got %d, %v", i, v, ok)
		}
	}
}

// TestCloseDrains: items published before Close remain poppable; pushes
// after Close fail; Closed() is sticky.
func TestCloseDrains(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 3; i++ {
		push(r, i)
	}
	r.Close()
	r.Close() // idempotent
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if push(r, 99) {
		t.Fatal("push succeeded after Close")
	}
	if r.Push(99) {
		t.Fatal("Push succeeded after Close")
	}
	for i := 0; i < 3; i++ {
		v, ok := pop(r)
		if !ok || v != i {
			t.Fatalf("drain after close: got %d, %v, want %d", v, ok, i)
		}
	}
	if _, ok := pop(r); ok {
		t.Fatal("pop on drained closed ring succeeded")
	}
}

// TestProducerConsumerStress is the -race gate on the memory ordering:
// one producer streams a counter through a small ring with mixed
// batched and unbatched publishes while a consumer drains with mixed
// Pop and PopBatch. Every value must arrive exactly once, in order.
func TestProducerConsumerStress(t *testing.T) {
	const total = 200_000
	r := New[uint64](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; {
			if i%3 == 0 { // batched publish path
				n := 0
				for n < 7 && i < total && r.Push(i) {
					i++
					n++
				}
				r.Publish()
				if n == 0 {
					runtime.Gosched()
				}
			} else if push(r, i) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	var next uint64
	buf := make([]uint64, 16)
	for next < total {
		if next%5 == 0 {
			n := r.PopBatch(buf)
			if n == 0 {
				runtime.Gosched()
				continue
			}
			for _, v := range buf[:n] {
				if v != next {
					t.Fatalf("got %d, want %d", v, next)
				}
				next++
			}
		} else {
			v, ok := pop(r)
			if !ok {
				runtime.Gosched()
				continue
			}
			if v != next {
				t.Fatalf("got %d, want %d", v, next)
			}
			next++
		}
	}
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("ring not empty after stream: Len() = %d", r.Len())
	}
}

// TestCloseWhileOffering races Close against an active producer:
// accepted + rejected must equal attempted, and the consumer must see
// exactly the accepted prefix — conservation through shutdown.
func TestCloseWhileOffering(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		r := New[uint64](32)
		var accepted, rejected atomic.Uint64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 50_000; i++ {
				for !push(r, i) {
					if r.Closed() {
						rejected.Add(50_000 - i)
						return
					}
					runtime.Gosched()
				}
				accepted.Add(1)
			}
		}()
		var consumed uint64
		var last uint64
		ordered := true
		for consumed < 500+uint64(iter)*37 {
			if v, ok := pop(r); ok {
				if consumed > 0 && v != last+1 {
					ordered = false
				}
				last = v
				consumed++
			}
		}
		r.Close()
		wg.Wait()
		// Drain what was published before the producer observed closure.
		for {
			v, ok := pop(r)
			if !ok {
				break
			}
			if v != last+1 {
				ordered = false
			}
			last = v
			consumed++
		}
		if !ordered {
			t.Fatalf("iter %d: out-of-order delivery", iter)
		}
		if consumed != accepted.Load() {
			t.Fatalf("iter %d: consumed %d != accepted %d (rejected %d)",
				iter, consumed, accepted.Load(), rejected.Load())
		}
		if accepted.Load()+rejected.Load() != 50_000 {
			t.Fatalf("iter %d: accepted %d + rejected %d != attempted 50000",
				iter, accepted.Load(), rejected.Load())
		}
	}
}

// TestRingZeroAlloc gates the hot path: steady-state batched push/pop
// traffic (BenchmarkRingBatched) allocates nothing on either side.
func TestRingZeroAlloc(t *testing.T) {
	r := New[uint64](256)
	dst := make([]uint64, 32)
	allocs := testing.AllocsPerRun(200, func() {
		for i := uint64(0); i < 128; i++ {
			if !r.Push(i) {
				t.Fatal("push failed")
			}
			if i%32 == 31 {
				r.Publish()
			}
		}
		r.Publish()
		got := 0
		for got < 128 {
			n := r.PopBatch(dst)
			if n == 0 {
				t.Fatal("empty mid-drain")
			}
			got += n
		}
	})
	if allocs != 0 {
		t.Fatalf("ring hot path allocates %v per run, want 0", allocs)
	}
}

// BenchmarkRingBatched measures the batched produce/consume cycle a
// replay lane performs per 64-frame burst.
func BenchmarkRingBatched(b *testing.B) {
	r := New[uint64](1024)
	dst := make([]uint64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := uint64(i) * 64
		for j := uint64(0); j < 64; j++ {
			r.Push(v + j)
		}
		r.Publish()
		got := 0
		for got < 64 {
			got += r.PopBatch(dst)
		}
	}
}
