// Package frame is the one binary codec in the tree. Every byte format
// this repository owns — the ACCSNAP1 defense snapshot, the ACCFLEET
// node↔coordinator frames and the cluster payloads inside them — is
// written through Enc and read through Dec, and the snapshot sits in a
// checksummed envelope (WriteContainer/ReadContainer). All integers are
// little-endian.
//
// The formats are read from disk and from TCP peers, so the decoding
// side has one rule, enforced here and nowhere else: nothing is sized
// from a number on the wire. An element count is read with Dec.Count,
// which refuses any count the bytes that remain could not hold, and a
// length-prefixed body is read with ReadN, which allocates at most
// ReadChunk ahead of the bytes that have actually arrived.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Enc is an append-only encoder; the zero value is ready and B is what
// has been written so far.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)    { e.B = append(e.B, v) }
func (e *Enc) U16(v uint16)  { e.B = binary.LittleEndian.AppendUint16(e.B, v) }
func (e *Enc) U32(v uint32)  { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)  { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)   { e.U64(uint64(v)) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Raw(b []byte)  { e.B = append(e.B, b...) }

// PutU32 overwrites the u32 at byte off of what has been written: a
// length field reserved in a header and filled in once the body is known.
func (e *Enc) PutU32(off int, v uint32) { binary.LittleEndian.PutUint32(e.B[off:], v) }

// Bool writes one byte, 1 or 0.
func (e *Enc) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	e.U8(b)
}

// Ints writes a counted section of non-negative ints, a u32 each.
func (e *Enc) Ints(v []int) {
	b := binary.LittleEndian.AppendUint32(e.B, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	e.B = b
}

// U64s writes a counted section of u64s.
func (e *Enc) U64s(v []uint64) {
	b := binary.LittleEndian.AppendUint32(e.B, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	e.B = b
}

// F64s writes a counted section of float64s.
func (e *Enc) F64s(v []float64) {
	b := binary.LittleEndian.AppendUint32(e.B, uint32(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	e.B = b
}

// Dec is the matching decoder. The first read past the end latches an
// error and every later read returns zero, so a decoder reads a whole
// section and checks Err (or Done) once at its end instead of per field.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b, which it never modifies.
func NewDec(b []byte) Dec { return Dec{b: b} }

// short latches the truncation error and parks the offset at the end
// of the input, so that every later read is short as well and the reads
// need no test of err.
func (d *Dec) short() {
	if d.err == nil {
		d.err = fmt.Errorf("frame: truncated at byte %d", d.off)
	}
	d.off = len(d.b)
}

var zeros [8]byte

// next returns the next n ≤ 8 bytes, or zeros once the input is short.
func (d *Dec) next(n int) []byte {
	if len(d.b)-d.off < n {
		d.short()
		return zeros[:n]
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *Dec) U8() uint8    { return d.next(1)[0] }
func (d *Dec) U16() uint16  { return binary.LittleEndian.Uint16(d.next(2)) }
func (d *Dec) U32() uint32  { return binary.LittleEndian.Uint32(d.next(4)) }
func (d *Dec) U64() uint64  { return binary.LittleEndian.Uint64(d.next(8)) }
func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Bool() bool   { return d.U8() != 0 }

// Count reads the u32 element count that opens a repeated section whose
// elements take at least elemBytes each. A count the remaining bytes
// cannot hold latches an error and reads as 0, so the make that follows
// is never larger than the input that asked for it.
func (d *Dec) Count(elemBytes int) int {
	n := d.U32()
	if need, have := uint64(n)*uint64(elemBytes), len(d.b)-d.off; need > uint64(have) {
		d.err = fmt.Errorf("frame: count %d at byte %d needs %d bytes, %d remain", n, d.off-4, need, have)
		d.off = len(d.b)
		return 0
	}
	return int(n)
}

// Ints reads what Enc.Ints wrote, into a fresh slice. Count has made
// sure of the bytes, so the elements are read without a test each.
func (d *Dec) Ints() []int {
	out := make([]int, d.Count(4))
	b := d.Bytes(4 * len(out))
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// U64s reads what Enc.U64s wrote, into a fresh slice.
func (d *Dec) U64s() []uint64 {
	out := make([]uint64, d.Count(8))
	b := d.Bytes(8 * len(out))
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

// F64s reads what Enc.F64s wrote, into a fresh slice.
func (d *Dec) F64s() []float64 {
	out := make([]float64, d.Count(8))
	b := d.Bytes(8 * len(out))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Bytes returns the next n bytes, aliasing the input.
func (d *Dec) Bytes(n int) []byte {
	if n < 0 || len(d.b)-d.off < n || d.err != nil {
		d.short()
		return nil
	}
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

// Len reports how many bytes have not been read yet: the most any
// section still to come can hold.
func (d *Dec) Len() int { return len(d.b) - d.off }

// Err reports the latched error, if any.
func (d *Dec) Err() error { return d.err }

// Done is Err for a decoder that should have consumed its whole input:
// bytes left over are an error too.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("frame: %d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// ReadChunk bounds how far ReadN allocates ahead of the bytes that have
// arrived.
const ReadChunk = 64 << 10

// ReadN appends exactly n bytes from r to buf. The caller has already
// bounded n; ReadN makes sure that bound is only ever reached by a
// sender that delivers: the buffer grows ReadChunk at a time, each chunk
// allocated once the one before it has been filled, so a hostile or
// corrupt length prefix alone cannot make the reader commit megabytes.
// A stream that ends first is an io.ErrUnexpectedEOF.
func ReadN(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = slices.Grow(buf, min(n, ReadChunk))
	for n > 0 {
		c := min(n, ReadChunk)
		off := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		n -= c
	}
	return buf, nil
}

// maxContainerPayload is the largest payload ReadContainer will read —
// far above any real snapshot, and with ReadN behind it a bound on what
// a sender can make the reader hold, not on what a header can claim.
const maxContainerPayload = 1 << 31

// WriteContainer writes payload in the snapshot envelope:
//
//	magic | version u16 | payloadLen u64 | payload | crc32 u32
//
// The CRC-32 (IEEE) covers the payload. The magic names the format and
// the version its layout, so a reader can refuse a foreign file, version
// skew, truncation and bit rot before it interprets a byte.
func WriteContainer(w io.Writer, magic string, version uint16, payload []byte) error {
	head := Enc{B: make([]byte, 0, len(magic)+10)}
	head.B = append(head.B, magic...)
	head.U16(version)
	head.U64(uint64(len(payload)))
	if _, err := w.Write(head.B); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var sum Enc
	sum.U32(crc32.ChecksumIEEE(payload))
	_, err := w.Write(sum.B)
	return err
}

// ReadContainer reads one WriteContainer envelope from r and returns its
// verified payload. The header is checked before anything is allocated
// for the payload, which then arrives through ReadN.
func ReadContainer(r io.Reader, magic string, version uint16) ([]byte, error) {
	head := make([]byte, len(magic)+10)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("%s header: %w", magic, err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("not a %s file (magic %q)", magic, head[:len(magic)])
	}
	d := NewDec(head[len(magic):])
	if v := d.U16(); v != version {
		return nil, fmt.Errorf("%s version %d, this build reads %d", magic, v, version)
	}
	n := d.U64()
	if n > maxContainerPayload {
		return nil, fmt.Errorf("%s payload length %d is implausible", magic, n)
	}
	body, err := ReadN(r, nil, int(n)+4)
	if err != nil {
		return nil, fmt.Errorf("%s payload: %w", magic, err)
	}
	payload, sum := body[:n:n], binary.LittleEndian.Uint32(body[n:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("%s checksum %08x != stored %08x (corrupt)", magic, got, sum)
	}
	return payload, nil
}
