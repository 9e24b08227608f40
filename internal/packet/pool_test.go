package packet

import (
	"strings"
	"testing"
)

// TestPoolReusePointerIdentity: a released packet is the next one
// handed out (LIFO free list), by pointer identity.
func TestPoolReusePointerIdentity(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	p.Length = 1500
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("pool did not recycle the released packet (pointer identity)")
	}
	if q.pooled {
		t.Fatal("recycled packet still marked pooled")
	}
	if len(pl.free) != 0 {
		t.Fatalf("free list holds %d packets after the reuse, want 0", len(pl.free))
	}
}

// TestPoolDoubleReleasePanics: Put on an already-pooled packet must
// panic with a message naming the bug, not corrupt the free list.
func TestPoolDoubleReleasePanics(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	pl.Put(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "double release") {
			t.Fatalf("panic message %v does not mention double release", r)
		}
		if len(pl.free) != 1 {
			t.Fatalf("free list corrupted by double release: len %d, want 1", len(pl.free))
		}
	}()
	pl.Put(p)
}

// TestPoolPutNilPanics guards the nil case separately so the error is
// attributable.
func TestPoolPutNilPanics(t *testing.T) {
	pl := NewPool()
	defer func() {
		if recover() == nil {
			t.Fatal("Put(nil) did not panic")
		}
	}()
	pl.Put(nil)
}

// TestPoolSteadyState: a get/put loop over a working set never grows
// the pool past the high-water mark and never allocates after warmup.
func TestPoolSteadyState(t *testing.T) {
	pl := NewPool()
	var live []*Packet
	for i := 0; i < 8; i++ {
		live = append(live, pl.Get())
	}
	for _, p := range live {
		pl.Put(p)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p := pl.Get()
		pl.Put(p)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %v per op, want 0", allocs)
	}
	if len(pl.free) != 8 {
		t.Fatalf("pool holds %d packets after the loop, want the 8 of the working set", len(pl.free))
	}
}

// TestCloneClearsPooled: a Clone of any packet is a free-standing
// packet, even if (erroneously) cloned while pool-resident.
func TestCloneClearsPooled(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	pl.Put(p)
	c := p.Clone()
	if c.pooled {
		t.Fatal("Clone inherited the pooled flag")
	}
}
