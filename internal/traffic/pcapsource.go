package traffic

import (
	"errors"
	"fmt"
	"io"

	"accturbo/internal/pcap"
)

// PcapSource adapts a pcap capture into a Source, so recorded or
// previously exported traces replay through the simulator exactly like
// synthetic workloads. Labels are not stored in pcap, so every packet
// replays as benign.
type PcapSource struct {
	r   *pcap.Reader
	err error
}

// NewPcapSource wraps an open pcap reader.
func NewPcapSource(r *pcap.Reader) *PcapSource {
	if r == nil {
		panic("traffic: nil pcap reader")
	}
	return &PcapSource{r: r}
}

// Next implements Source.
func (s *PcapSource) Next() (TimedPacket, bool) {
	if s.err != nil {
		return TimedPacket{}, false
	}
	at, p, err := s.r.Next()
	if err != nil {
		if !errors.Is(err, io.EOF) {
			s.err = fmt.Errorf("traffic: reading pcap: %w", err)
		}
		return TimedPacket{}, false
	}
	return TimedPacket{At: at, Pkt: p}, true
}

// Err reports a non-EOF read error encountered during iteration, if
// any.
func (s *PcapSource) Err() error { return s.err }
