package frame

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// allocated reports the bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(0xab)
	e.U16(0xbeef)
	e.U32(0) // reserved, filled in by PutU32 below
	e.U64(1<<63 | 5)
	e.I64(-7)
	e.F64(math.Pi)
	e.Bool(true)
	e.Bool(false)
	e.Raw([]byte("xyz"))
	e.Ints([]int{3, 0, 1 << 31})
	e.U64s([]uint64{9, math.MaxUint64})
	e.F64s([]float64{-1.5, math.Inf(1)})
	e.Ints(nil)
	n := len(e.B)
	e.PutU32(3, 0xdeadbeef)
	if len(e.B) != n {
		t.Fatalf("PutU32 changed the length %d → %d, want it to overwrite in place", n, len(e.B))
	}

	// The layout is little-endian and exactly as wide as the types.
	if want := []byte{0xab, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde}; !bytes.HasPrefix(e.B, want) {
		t.Fatalf("encoded prefix % x, want % x", e.B[:len(want)], want)
	}

	d := NewDec(e.B)
	if d.U8() != 0xab || d.U16() != 0xbeef || d.U32() != 0xdeadbeef || d.U64() != 1<<63|5 ||
		d.I64() != -7 || d.F64() != math.Pi || !d.Bool() || d.Bool() {
		t.Fatal("scalar round trip mismatch")
	}
	if got := d.Bytes(3); string(got) != "xyz" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := d.Ints(); len(got) != 3 || got[2] != 1<<31 {
		t.Fatalf("Ints = %v", got)
	}
	if got := d.U64s(); len(got) != 2 || got[1] != math.MaxUint64 {
		t.Fatalf("U64s = %v", got)
	}
	if got := d.F64s(); len(got) != 2 || got[0] != -1.5 || !math.IsInf(got[1], 1) {
		t.Fatalf("F64s = %v", got)
	}
	if got := d.Ints(); got == nil || len(got) != 0 {
		t.Fatalf("empty Ints = %#v, want an empty slice", got)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestDecLatches: the first short read fails the decoder for good, every
// later read is zero, and the input is never read past.
func TestDecLatches(t *testing.T) {
	d := NewDec([]byte{1, 2, 3, 4, 5})
	if d.U32() != 0x04030201 {
		t.Fatal("first read")
	}
	if d.U32() != 0 || d.Err() == nil {
		t.Fatal("a short read must yield zero and latch an error")
	}
	first := d.Err()
	if d.U8() != 0 || d.U64() != 0 || d.Bytes(1) != nil || d.Count(1) != 0 || len(d.Ints()) != 0 {
		t.Fatal("reads after the error must yield zero")
	}
	if d.Err() != first || d.Done() != first {
		t.Fatal("the first error must stay latched")
	}

	d = NewDec([]byte{1, 2})
	d.U8()
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Done with a byte left = %v", err)
	}
	d = NewDec([]byte{1})
	if d.Bytes(-1) != nil || d.Err() == nil {
		t.Fatal("a negative length must fail")
	}
}

// TestCountBoundedByInput is the one bounds rule: a count is accepted
// exactly when the bytes behind it could hold that many elements.
func TestCountBoundedByInput(t *testing.T) {
	with := func(count uint32, tail int) Dec {
		var e Enc
		e.U32(count)
		e.B = append(e.B, make([]byte, tail)...)
		return NewDec(e.B)
	}
	for _, c := range []struct {
		count     uint32
		elem, got int
		ok        bool
	}{
		{0, 8, 0, true},
		{4, 8, 32, true},
		{5, 8, 39, false},
		{5, 8, 40, true},
		{math.MaxUint32, 1, 1 << 10, false},
		{math.MaxUint32, 61, 1 << 10, false},
		{1 << 27, 4, 0, false},
	} {
		d := with(c.count, c.got)
		n := d.Count(c.elem)
		if c.ok != (d.Err() == nil) || (c.ok && n != int(c.count)) || (!c.ok && n != 0) {
			t.Errorf("Count(%d) of %d with %d bytes behind it = %d, %v", c.elem, c.count, c.got, n, d.Err())
		}
	}
	// The slice readers are sized by it.
	d := with(math.MaxUint32, 64)
	if got := allocated(func() { d.U64s() }); got > 1<<10 || d.Err() == nil {
		t.Fatalf("U64s of a hostile count allocated %d bytes (err %v)", got, d.Err())
	}
}

func TestContainerRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("p"), bytes.Repeat([]byte{7}, 3*ReadChunk+11)} {
		var buf bytes.Buffer
		if err := WriteContainer(&buf, "ACCTEST1", 3, payload); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 8+2+8+len(payload)+4 {
			t.Fatalf("container of %d payload bytes is %d long", len(payload), buf.Len())
		}
		buf.WriteString("next") // the container is self-delimiting
		got, err := ReadContainer(&buf, "ACCTEST1", 3)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read back %d bytes, %v; want %d", len(got), err, len(payload))
		}
		if buf.String() != "next" {
			t.Fatalf("ReadContainer left %q unread", buf.String())
		}
	}
}

func TestContainerRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteContainer(&buf, "ACCTEST1", 3, []byte("some payload")); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	patched := func(at int, b byte) []byte {
		out := append([]byte(nil), good...)
		out[at] ^= b
		return out
	}
	for name, c := range map[string]struct {
		data []byte
		want string
	}{
		"empty":      {nil, "header"},
		"magic":      {patched(0, 1), "not a ACCTEST1"},
		"version":    {patched(8, 1), "version"},
		"length":     {patched(17, 0x80), "implausible"},
		"payload":    {patched(20, 1), "checksum"},
		"checksum":   {patched(len(good)-1, 1), "checksum"},
		"truncated":  {good[:len(good)-1], "payload"},
		"header cut": {good[:12], "header"},
	} {
		_, err := ReadContainer(bytes.NewReader(c.data), "ACCTEST1", 3)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, c.want)
		}
	}
	if _, err := ReadContainer(bytes.NewReader(good), "ACCTEST1", 4); err == nil {
		t.Error("a reader of version 4 accepted version 3")
	}
}

// TestHostileLengthAllocatesOneChunk: the largest length a header may
// claim, followed by nothing, costs the reader one chunk (core's test of
// the same file holds it to exactly one) — with both envelopes' readers,
// since both are ReadN.
func TestHostileLengthAllocatesOneChunk(t *testing.T) {
	head := Enc{B: []byte("ACCTEST1")}
	head.U16(1)
	head.U64(maxContainerPayload)
	var err error
	got := allocated(func() { _, err = ReadContainer(bytes.NewReader(head.B), "ACCTEST1", 1) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want an unexpected EOF", err)
	}
	// One chunk; a race-detector build allocates the chunk's zeroes
	// apart from the buffer they extend, and so about three.
	if got > 3*ReadChunk+4096 {
		t.Fatalf("a header alone made the reader allocate %d bytes, chunk is %d", got, ReadChunk)
	}

	// A sender that falls short costs the reader a multiple of what it
	// sent (append's regrowth, all of it garbage), not what it claimed.
	sent := bytes.Repeat([]byte{1}, 5*ReadChunk)
	got = allocated(func() { _, err = ReadN(bytes.NewReader(sent), nil, 1<<30) })
	if !errors.Is(err, io.ErrUnexpectedEOF) || got > 8*uint64(len(sent)) {
		t.Fatalf("ReadN of 1 GiB from %d bytes: %v, %d allocated", len(sent), err, got)
	}
	out, err := ReadN(bytes.NewReader(sent), []byte("head"), len(sent))
	if err != nil || !bytes.Equal(out[4:], sent) || string(out[:4]) != "head" {
		t.Fatalf("ReadN appended %d bytes, %v", len(out)-4, err)
	}
}
