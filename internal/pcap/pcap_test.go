package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// quickConfig fixes the generator of a quick.Check, so a failing input
// is the same on every run.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// timedPkt pairs a packet with a timestamp for test fixtures (the
// traffic package cannot be imported here: it depends on pcap).
type timedPkt struct {
	At  eventsim.Time
	Pkt *packet.Packet
}

// fixturePackets builds n deterministic UDP packets spaced 1 ms apart.
func fixturePackets(n int) []timedPkt {
	out := make([]timedPkt, n)
	for i := range out {
		out[i] = timedPkt{
			At: eventsim.Time(i) * eventsim.Millisecond,
			Pkt: &packet.Packet{
				SrcIP: packet.V4(10, 1, 2, byte(i)), DstIP: packet.V4(10, 4, 5, 6),
				Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 456,
				TTL: 61, Length: uint16(300 + i%100),
			},
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	pkts := fixturePackets(100)

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
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

	r, err := NewMappedReader(buf.Bytes())
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
		want := pkts[i]
		// Timestamps round to microseconds.
		if at/eventsim.Microsecond != want.At/eventsim.Microsecond {
			t.Fatalf("packet %d at %v, want %v", i, at, want.At)
		}
		if p.SrcIP != want.Pkt.SrcIP || p.DstIP != want.Pkt.DstIP ||
			p.SrcPort != want.Pkt.SrcPort || p.DstPort != want.Pkt.DstPort ||
			p.Length != want.Pkt.Length || p.TTL != want.Pkt.TTL {
			t.Fatalf("packet %d differs: %+v vs %+v", i, p, want.Pkt)
		}
	}
}

func TestGlobalHeaderFormat(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("header length %d", len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != 0xa1b2c3d4 {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint32(hdr[20:24]) != 101 {
		t.Fatal("linktype must be RAW (101)")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewMappedReader([]byte("not a pcap file at all.....")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := NewMappedReader(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReaderBigEndian(t *testing.T) {
	// Build a big-endian capture by hand with one 20-byte IPv4 packet.
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
	binary.BigEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.BigEndian.PutUint32(hdr[20:24], 101)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 7)
	binary.BigEndian.PutUint32(rec[4:8], 500000)
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(wire)))
	binary.BigEndian.PutUint32(rec[12:16], uint32(len(wire)))
	buf.Write(rec)
	buf.Write(wire)

	r, err := NewMappedReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	at, q, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if at != 7*eventsim.Second+500*eventsim.Millisecond {
		t.Fatalf("timestamp %v", at)
	}
	if q.SrcIP != p.SrcIP || q.TTL != 9 {
		t.Fatalf("packet %+v", q)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	p := &packet.Packet{
		SrcIP: packet.V4(1, 2, 3, 4), DstIP: packet.V4(5, 6, 7, 8),
		Length: 100, TTL: 9, Protocol: packet.ProtoUDP,
	}
	w.Write(0, p)
	w.Flush()
	data := buf.Bytes()
	r, err := NewMappedReader(data[:len(data)-10])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

// Property: random packets round-trip with fields intact.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		n := 1 + r.Intn(20)
		var orig []*packet.Packet
		for i := 0; i < n; i++ {
			p := &packet.Packet{
				SrcIP:    packet.V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))),
				DstIP:    packet.V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))),
				Protocol: packet.ProtoUDP,
				SrcPort:  uint16(r.Intn(65536)),
				DstPort:  uint16(r.Intn(65536)),
				TTL:      uint8(r.Intn(256)),
				Length:   uint16(28 + r.Intn(1400)),
			}
			orig = append(orig, p)
			if err := w.Write(eventsim.Time(i)*eventsim.Millisecond, p); err != nil {
				return false
			}
		}
		w.Flush()
		rd, err := NewMappedReader(buf.Bytes())
		if err != nil {
			return false
		}
		for i := 0; ; i++ {
			_, p, err := rd.Next()
			if err == io.EOF {
				return i == n
			}
			if err != nil {
				return false
			}
			o := orig[i]
			if p.SrcIP != o.SrcIP || p.DstIP != o.DstIP || p.SrcPort != o.SrcPort ||
				p.DstPort != o.DstPort || p.TTL != o.TTL || p.Length != o.Length {
				return false
			}
		}
	}
	if err := quick.Check(f, quickConfig(50)); err != nil {
		t.Fatal(err)
	}
}

// fullSizeUDP is a 1500-byte UDP packet, the record size that dominates
// a CAIDA-like capture.
func fullSizeUDP() *packet.Packet {
	return &packet.Packet{
		SrcIP: packet.V4(1, 2, 3, 4), DstIP: packet.V4(5, 6, 7, 8),
		Length: 1500, TTL: 64, Protocol: packet.ProtoUDP, SrcPort: 1, DstPort: 2,
	}
}

// TestWriterWriteZeroAlloc is the allocation gate on the capture write
// path: once the Writer's record buffer has grown to a record's size,
// writing one more marshals it in place and allocates nothing.
func TestWriterWriteZeroAlloc(t *testing.T) {
	w, err := NewNanoWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	p := fullSizeUDP()
	tcp := *p
	tcp.Protocol = packet.ProtoTCP
	at := eventsim.Time(0)
	allocs := testing.AllocsPerRun(200, func() {
		for _, q := range []*packet.Packet{p, &tcp} {
			at += eventsim.Microsecond
			if err := w.Write(at, q); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Writer.Write allocates %v per two records, want 0", allocs)
	}
}

func BenchmarkWriterWrite(b *testing.B) {
	p := fullSizeUDP()
	w, _ := NewWriter(io.Discard)
	b.SetBytes(int64(p.WireLen()) + 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(eventsim.Time(i), p); err != nil {
			b.Fatal(err)
		}
	}
}
