package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"accturbo"
	"accturbo/internal/faults"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
	"accturbo/internal/traffic"
)

// captureStream yields the capture with packet-level faults applied:
// injected drops vanish, duplicates follow as distinct packets, and
// corruption mutates headers in place, all deterministic under
// -chaos-seed. Every mode but replay reads its traffic here: a frame that
// is not IPv4 is skipped and counted once on stderr, and any other read
// error exits 1, so a report never covers a truncated capture.
type captureStream struct {
	frames   *pcap.MappedReader        // the capture's mapping; nil without -in
	capture  *traffic.PcapSource       // nil: nothing to replay (-restore without -in)
	injector *faults.Injector          // nil: no packet-level faults
	tap      func(traffic.TimedPacket) // nil, or sees every packet yielded
	pending  []traffic.TimedPacket     // duplicates waiting to be yielded
}

func (s *captureStream) next() (traffic.TimedPacket, bool) {
	c, ok := s.pull()
	if ok && s.tap != nil {
		s.tap(c)
	}
	return c, ok
}

func (s *captureStream) pull() (traffic.TimedPacket, bool) {
	if len(s.pending) > 0 {
		c := s.pending[0]
		s.pending = s.pending[1:]
		return c, true
	}
	for s.capture != nil {
		tp, ok := s.capture.Next()
		if !ok {
			if err := s.capture.Err(); err != nil {
				fatal(1, err)
			}
			if n := s.capture.Skipped(); n > 0 {
				fmt.Fprintf(os.Stderr, "skipped %d malformed frames in %s\n", n, in)
			}
			s.capture = nil
			break
		}
		if s.injector != nil {
			drop, dup := s.injector.Mangle(tp.Pkt)
			if drop {
				continue
			}
			if dup {
				clone := *tp.Pkt
				s.pending = append(s.pending, traffic.TimedPacket{At: tp.At, Pkt: &clone})
			}
		}
		return tp, true
	}
	return traffic.TimedPacket{}, false
}

// chaosSummary is a mode's chaos report line: the packet faults applied
// here and the control-plane stalls of the clock the injector wraps.
func (s *captureStream) chaosSummary() string {
	inj := s.injector
	return fmt.Sprintf("chaos (seed %d, spec %q): %d dropped, %d duplicated, %d corrupted, %d polls suppressed, %d callbacks delayed",
		chaosSeed, inj.Spec().String(), inj.PacketsDropped.Value(), inj.PacketsDuplicated.Value(),
		inj.PacketsCorrupted.Value(), inj.PollsSuppressed.Value(), inj.CallbacksDelayed.Value())
}

// printResilience prints a pipeline's watchdog line, after indent, when
// the watchdog is armed and has engaged or a panic was recovered.
func printResilience(indent string, h accturbo.Health) {
	if failOpenAfter > 0 && (h.Control.FailOpenEngagements > 0 || h.Control.PanicsRecovered > 0) {
		fmt.Printf("%sresilience: %d fail-open engagements, %d watchdog trips, %d panics recovered\n",
			indent, h.Control.FailOpenEngagements, h.Control.WatchdogTrips, h.Control.PanicsRecovered)
	}
}

// feed hands each packet of the capture, with its capture time, to
// emit and returns the packet count.
func feed(src *captureStream, emit func(at time.Duration, p *packet.Packet)) int {
	n := 0
	for c, ok := src.next(); ok; c, ok = src.next() {
		emit(c.At.Duration(), c.Pkt)
		n++
	}
	return n
}

// feedReplay is the wire-speed lane: raw frames stream zero-copy out of
// the memory-mapped capture into an SPSC lane with batched publish, and
// the per-shard consumers run the fused decode. A full ring flushes and
// yields (the consumers need the core) rather than shedding, so the
// measured rate is lossless. OfferFrame reads a frame only during the
// call, so the mapping can close as soon as the last pass is offered.
// It returns the frames accepted; the stage's own IngestRejected and
// IngestShed count the malformed frames and the retries.
func feedReplay(d *accturbo.Defense, frames *pcap.MappedReader) int {
	if err := d.EnableIngest(ingestQueue, 1); err != nil {
		fatal(2, err)
	}
	lane := d.Lane(0)
	n := 0
	for loop := 0; loop < loops; loop++ {
		frames.Reset()
		for {
			_, frame, err := frames.NextFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal(1, err)
			}
		offer:
			for {
				switch lane.OfferFrame(frame) {
				case accturbo.OfferAccepted:
					n++
					break offer
				case accturbo.OfferRejected:
					break offer
				case accturbo.OfferFull:
					lane.Flush()
					runtime.Gosched()
				default: // OfferClosed: nothing more will be accepted
					fatal(1, "ingest closed mid-replay")
				}
			}
		}
	}
	lane.Flush()
	return n
}

// victimTap feeds the heavy-keeper from the capture chokepoint: every
// packet's destination key and size, with windows closing on capture
// time, so the victim list is deterministic per capture. peaks remembers
// every destination ever listed and its worst window, so the end-of-run
// report survives an attack that ends before the capture does.
type victimTap struct {
	vd             *accturbo.VictimDetector
	window, nextAt time.Duration
	peaks          map[uint64]accturbo.Victim
}

func newVictimTap(topK int, window time.Duration) (*victimTap, error) {
	vcfg := accturbo.DefaultVictimConfig()
	vcfg.TopK = topK
	vd, err := accturbo.NewVictimDetector(vcfg)
	if err != nil {
		return nil, err
	}
	return &victimTap{vd: vd, window: window, nextAt: window, peaks: map[uint64]accturbo.Victim{}}, nil
}

func (t *victimTap) observe(c traffic.TimedPacket) {
	for t.nextAt <= c.At.Duration() {
		t.closeWindow()
		t.nextAt += t.window
	}
	t.vd.Observe(accturbo.DstKey(c.Pkt), uint64(c.Pkt.Length))
}

func (t *victimTap) closeWindow() {
	for _, v := range t.vd.Advance() {
		p, listed := t.peaks[v.Key]
		windows := max(v.Windows, p.Windows)
		if listed && v.Share <= p.Share {
			v = p
		}
		v.Windows = windows
		t.peaks[v.Key] = v
	}
}

func (t *victimTap) report() {
	t.closeWindow() // the trailing partial window
	fmt.Printf("\nvictim aggregates (heavy-keeper, %d windows of %v):\n", t.vd.Windows(), t.window)
	if len(t.peaks) == 0 {
		fmt.Println("  none listed")
	}
	keys := make([]uint64, 0, len(t.peaks))
	for k := range t.peaks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := t.peaks[keys[i]], t.peaks[keys[j]]
		return a.Share > b.Share || a.Share == b.Share && keys[i] < keys[j]
	})
	for _, k := range keys {
		v := t.peaks[k]
		fmt.Printf("  dst %s: peak %8d bytes/window (%5.1f%% share), listed %d window(s)\n",
			packet.V4AddrFromUint32(uint32(k)), v.Bytes, 100*v.Share, v.Windows)
	}
}
