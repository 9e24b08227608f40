package pcap

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"accturbo/internal/packet"
)

// FuzzReader checks the pcap reader never panics on arbitrary input
// and terminates (EOF or an error) on every image; a frame that does
// not decode is skipped, as traffic.PcapSource does.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	p := &packet.Packet{
		SrcIP: packet.V4(1, 2, 3, 4), DstIP: packet.V4(5, 6, 7, 8),
		Length: 100, TTL: 9, Protocol: packet.ProtoUDP,
	}
	w.Write(0, p)
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewMappedReader(data)
		if err != nil {
			return
		}
		for i := 0; i < 10_000; i++ {
			_, p, err := r.Next()
			switch {
			case err == io.EOF:
				return
			case errors.Is(err, packet.ErrTooShort), errors.Is(err, packet.ErrBadVersion), errors.Is(err, packet.ErrBadLength):
				continue
			case err != nil:
				return
			case p == nil:
				t.Fatal("nil packet without an error")
			}
		}
	})
}
