package traffic

import (
	"errors"
	"fmt"
	"io"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
)

// PcapSource adapts a pcap capture into a Source, so recorded or
// previously exported traces replay through the simulator exactly like
// synthetic workloads. It is the one packet stream every tool reads a
// capture through, and it holds the one policy for bad input: a frame
// packet.Unmarshal rejects (too short, not IPv4, a bad length) is
// skipped and counted by Skipped; any other read error, such as a
// truncated record, ends the stream and is reported by Err.
//
// Capture time counts from the start of the first record's second, so
// a capture stamped with wall-clock time (seconds since 1970, as
// tcpdump writes) replays like one trafficgen wrote from zero. Labels
// are not stored in pcap, so every packet replays as benign.
type PcapSource struct {
	r       *pcap.MappedReader // nil once the stream has ended
	base    eventsim.Time      // the first record's second; -1 before it
	skipped int
	err     error
}

// NewPcapSource wraps an open capture.
func NewPcapSource(r *pcap.MappedReader) *PcapSource {
	if r == nil {
		panic("traffic: nil pcap reader")
	}
	return &PcapSource{r: r, base: -1}
}

// Next implements Source.
func (s *PcapSource) Next() (TimedPacket, bool) {
	for s.r != nil {
		at, p, err := s.r.Next()
		malformed := err != nil && (errors.Is(err, packet.ErrTooShort) ||
			errors.Is(err, packet.ErrBadVersion) || errors.Is(err, packet.ErrBadLength))
		if s.base < 0 && (err == nil || malformed) {
			s.base = at - at%eventsim.Second
		}
		switch {
		case err == nil:
			return TimedPacket{At: at - s.base, Pkt: p}, true
		case malformed:
			s.skipped++
		default:
			if err != io.EOF {
				s.err = fmt.Errorf("traffic: reading pcap: %w", err)
			}
			s.r = nil
		}
	}
	return TimedPacket{}, false
}

// Skipped counts the malformed frames passed over so far.
func (s *PcapSource) Skipped() int { return s.skipped }

// Err reports the read error that ended the stream, if any.
func (s *PcapSource) Err() error { return s.err }
