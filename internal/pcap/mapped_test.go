package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// captureBytes serializes fixture packets with the chosen writer.
func captureBytes(t *testing.T, nanos bool, pkts []timedPkt) []byte {
	t.Helper()
	var buf bytes.Buffer
	mk := NewWriter
	if nanos {
		mk = NewNanoWriter
	}
	w, err := mk(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range pkts {
		if err := w.Write(tp.At, tp.Pkt); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNanoRoundTrip: the nanosecond magic preserves the simulator's
// full clock resolution through a write/read cycle — including
// sub-microsecond offsets the classic magic truncates.
func TestNanoRoundTrip(t *testing.T) {
	pkts := fixturePackets(50)
	for i := range pkts {
		pkts[i].At += eventsim.Time(i * 7) // non-zero nanosecond remainders
	}
	data := captureBytes(t, true, pkts)
	if got := binary.LittleEndian.Uint32(data[0:4]); got != magicNanos {
		t.Fatalf("magic %#x, want %#x", got, magicNanos)
	}
	r, err := NewMappedReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		at, p, err := r.Next()
		if err == io.EOF {
			if i != len(pkts) {
				t.Fatalf("read %d packets, wrote %d", i, len(pkts))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if at != pkts[i].At {
			t.Fatalf("packet %d at %v, want %v (nanos must be lossless)", i, at, pkts[i].At)
		}
		if p.SrcIP != pkts[i].Pkt.SrcIP || p.Length != pkts[i].Pkt.Length {
			t.Fatalf("packet %d differs", i)
		}
	}
}

// TestMicrosTruncation pins the classic magic's documented behaviour:
// sub-microsecond detail is dropped, not rounded up or corrupted.
func TestMicrosTruncation(t *testing.T) {
	at := 3*eventsim.Second + 123*eventsim.Microsecond + 456*eventsim.Nanosecond
	pkts := []timedPkt{{At: at, Pkt: fixturePackets(1)[0].Pkt}}
	r, err := NewMappedReader(captureBytes(t, false, pkts))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*eventsim.Second + 123*eventsim.Microsecond; got != want {
		t.Fatalf("timestamp %v, want %v", got, want)
	}
}

// TestMappedReaderMatchesReader: NextFrame and Next walk the same
// records — the fixture packets as written, at their timestamps (to the
// microsecond under the classic magic) — for both magics, and Next's
// packet is the decode of NextFrame's bytes.
func TestMappedReaderMatchesReader(t *testing.T) {
	for _, nanos := range []bool{false, true} {
		pkts := fixturePackets(200)
		data := captureBytes(t, nanos, pkts)
		decoded, err := NewMappedReader(data)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := NewMappedReader(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			at, p, derr := decoded.Next()
			frameAt, frame, rerr := raw.NextFrame()
			if derr == io.EOF && rerr == io.EOF {
				if i != len(pkts) {
					t.Fatalf("nanos=%v: read %d records, wrote %d", nanos, i, len(pkts))
				}
				break
			}
			if derr != nil || rerr != nil {
				t.Fatalf("nanos=%v record %d: Next err %v, NextFrame err %v", nanos, i, derr, rerr)
			}
			want := pkts[i]
			if at != frameAt || at/eventsim.Microsecond != want.At/eventsim.Microsecond {
				t.Fatalf("nanos=%v record %d: Next at %v, NextFrame at %v, written at %v", nanos, i, at, frameAt, want.At)
			}
			q, err := packet.Unmarshal(frame)
			if err != nil {
				t.Fatalf("nanos=%v record %d: frame does not parse: %v", nanos, i, err)
			}
			if *p != *q || p.SrcIP != want.Pkt.SrcIP || p.Length != want.Pkt.Length || p.SrcPort != want.Pkt.SrcPort {
				t.Fatalf("nanos=%v record %d: Next %+v, frame %+v, written %+v", nanos, i, p, q, want.Pkt)
			}
		}
	}
}

// TestMappedReaderReset: Reset rewinds to the first record and yields
// the identical sequence, the contract replay -loops depends on.
func TestMappedReaderReset(t *testing.T) {
	data := captureBytes(t, true, fixturePackets(10))
	m, err := NewMappedReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var first [][]byte
	for {
		_, frame, err := m.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, frame)
	}
	m.Reset()
	for i := 0; ; i++ {
		_, frame, err := m.NextFrame()
		if err == io.EOF {
			if i != len(first) {
				t.Fatalf("second pass yielded %d frames, first %d", i, len(first))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, first[i]) {
			t.Fatalf("frame %d differs across Reset", i)
		}
	}
}

// TestMappedReaderBigEndian: a hand-built big-endian nanosecond capture
// reads correctly through the mapped path.
func TestMappedReaderBigEndian(t *testing.T) {
	p := &packet.Packet{
		SrcIP: packet.V4(1, 2, 3, 4), DstIP: packet.V4(5, 6, 7, 8),
		Length: 20, TTL: 9, Protocol: packet.ProtoICMP,
	}
	wire := make([]byte, p.WireLen())
	if err := p.MarshalTo(wire); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], magicNanos)
	binary.BigEndian.PutUint32(hdr[20:24], 101)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 7)
	binary.BigEndian.PutUint32(rec[4:8], 500000001)
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(wire)))
	binary.BigEndian.PutUint32(rec[12:16], uint32(len(wire)))
	buf.Write(rec)
	buf.Write(wire)

	m, err := NewMappedReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	at, frame, err := m.NextFrame()
	if err != nil {
		t.Fatal(err)
	}
	if want := 7*eventsim.Second + 500*eventsim.Millisecond + eventsim.Nanosecond; at != want {
		t.Fatalf("timestamp %v, want %v", at, want)
	}
	if !bytes.Equal(frame, wire) {
		t.Fatal("frame bytes differ")
	}
	if _, _, err := m.NextFrame(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestMappedReaderTruncation: a capture cut mid-record errors instead
// of silently ending, for both the header and the body cut.
func TestMappedReaderTruncation(t *testing.T) {
	data := captureBytes(t, false, fixturePackets(2))
	for _, cut := range []int{len(data) - 5, len(data) - 30} {
		m, err := NewMappedReader(data[:cut])
		if err != nil {
			t.Fatal(err)
		}
		sawErr := false
		for {
			_, _, err := m.NextFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Fatalf("cut at %d: truncated capture iterated to clean EOF", cut)
		}
	}
	if _, err := NewMappedReader([]byte{1, 2, 3}); err == nil {
		t.Fatal("header-less image accepted")
	}
	if _, err := NewMappedReader(bytes.Repeat([]byte{0xaa}, 24)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestOpenMapped: the file-backed constructor (mmap on unix, read-all
// elsewhere) yields the same frames as the in-memory image, and Close
// releases it.
func TestOpenMapped(t *testing.T) {
	pkts := fixturePackets(64)
	data := captureBytes(t, true, pkts)
	path := filepath.Join(t.TempDir(), "trace.pcap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		at, frame, err := m.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if at != pkts[n].At {
			t.Fatalf("frame %d at %v, want %v", n, at, pkts[n].At)
		}
		if _, err := packet.ParseFrame(frame); err != nil {
			t.Fatalf("frame %d does not parse: %v", n, err)
		}
		n++
	}
	if n != len(pkts) {
		t.Fatalf("mapped %d frames, wrote %d", n, len(pkts))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := OpenMapped(filepath.Join(t.TempDir(), "missing.pcap")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestMappedReaderZeroAlloc: iterating a mapped capture allocates
// nothing per frame.
func TestMappedReaderZeroAlloc(t *testing.T) {
	data := captureBytes(t, true, fixturePackets(128))
	m, err := NewMappedReader(data)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Reset()
		for {
			_, _, err := m.NextFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("mapped iteration allocates %v per pass, want 0", allocs)
	}
}
