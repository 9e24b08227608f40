package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"accturbo"
	"accturbo/internal/faults"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
)

type capturedPacket struct {
	at  time.Duration
	pkt *packet.Packet
}

// captureStream yields the capture with packet-level faults applied:
// injected drops vanish here, duplicates appear back to back as distinct
// packets, and corruption mutates headers in place — all deterministic
// under -chaos-seed. Every mode but -replay reads its traffic here. A
// frame that is not an IPv4 packet is skipped and counted, like -replay's
// malformed frames; any other read error ends the process with exit 1,
// so a report never covers a silently truncated capture.
type captureStream struct {
	r        *pcap.Reader         // nil: nothing to replay (-restore without -in)
	injector *faults.Injector     // nil: no packet-level faults
	tap      func(capturedPacket) // nil, or sees every packet yielded
	pending  []capturedPacket     // duplicates waiting to be yielded
	skipped  int                  // malformed frames passed over
}

func (s *captureStream) next() (capturedPacket, bool) {
	c, ok := s.pull()
	if ok && s.tap != nil {
		s.tap(c)
	}
	return c, ok
}

func (s *captureStream) pull() (capturedPacket, bool) {
	if len(s.pending) > 0 {
		c := s.pending[0]
		s.pending = s.pending[1:]
		return c, true
	}
	for s.r != nil {
		at, p, err := s.r.Next()
		switch {
		case err == io.EOF:
			if s.skipped > 0 {
				fmt.Fprintf(os.Stderr, "skipped %d malformed frames in %s\n", s.skipped, *in)
			}
			s.r = nil
			continue
		case errors.Is(err, packet.ErrTooShort), errors.Is(err, packet.ErrBadVersion), errors.Is(err, packet.ErrBadLength):
			s.skipped++
			continue
		case err != nil:
			fatal(1, err)
		}
		c := capturedPacket{at: at.Duration(), pkt: p}
		if s.injector != nil {
			drop, dup := s.injector.Mangle(p)
			if drop {
				continue
			}
			if dup {
				clone := *p
				s.pending = append(s.pending, capturedPacket{at: c.at, pkt: &clone})
			}
		}
		return c, true
	}
	return capturedPacket{}, false
}

// chaosSummary is the packet-level half of a mode's chaos report line.
func (s *captureStream) chaosSummary() string {
	inj := s.injector
	return fmt.Sprintf("chaos (seed %d, spec %q): %d dropped, %d duplicated, %d corrupted",
		*chaosSeed, inj.Spec().String(), inj.PacketsDropped.Value(),
		inj.PacketsDuplicated.Value(), inj.PacketsCorrupted.Value())
}

// feed pulls the capture into batches of size packets and hands each,
// with its first packet's capture time, to emit; pkts is only valid
// until emit returns. It returns the packet count.
func feed(src *captureStream, size int, emit func(at time.Duration, pkts []*packet.Packet)) int {
	n := 0
	var at time.Duration
	buf := make([]*packet.Packet, 0, size)
	for c, ok := src.next(); ok; c, ok = src.next() {
		if len(buf) == 0 {
			at = c.at
		}
		buf = append(buf, c.pkt)
		n++
		if len(buf) == size {
			emit(at, buf)
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		emit(at, buf)
	}
	return n
}

// feedRealTime fans the capture's batches out to -ingest workers over a
// channel holding -ingest-queue packets. A full channel blocks the
// reader: a capture file can wait, so nothing is shed.
func feedRealTime(src *captureStream, size int, deliver func(at time.Duration, pkts []*packet.Packet)) int {
	type batch struct {
		at   time.Duration
		pkts []*packet.Packet
	}
	ch := make(chan batch, max(1, *ingestQueue/size))
	var wg sync.WaitGroup
	for w := 0; w < *ingest; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range ch {
				deliver(b.at, b.pkts)
			}
		}()
	}
	n := feed(src, size, func(at time.Duration, pkts []*packet.Packet) {
		ch <- batch{at, slices.Clone(pkts)}
	})
	close(ch)
	wg.Wait()
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
func feedReplay(d *accturbo.Defense) int {
	mapped, err := pcap.OpenMapped(*in)
	if err != nil {
		fatal(1, err)
	}
	defer mapped.Close()
	if err := d.EnableIngest(*ingestQueue, 1); err != nil {
		fatal(2, err)
	}
	lane := d.Lane(0)
	n := 0
	for loop := 0; loop < *replayLoops; loop++ {
		mapped.Reset()
		for {
			_, frame, err := mapped.NextFrame()
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

// replayPaced drives the capture through process for the fleet modes,
// calling poll at a data-driven cadence: a capture drains far faster
// than wall-clock poll intervals, so without this a short replay would
// finish before the first poll.
func replayPaced(src *captureStream, poll func(), process func(at time.Duration, p *packet.Packet)) int {
	n := 0
	return feed(src, 1, func(at time.Duration, pkts []*packet.Packet) {
		process(at, pkts[0])
		if n++; n%5000 == 0 {
			poll()
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// settle lets the last window rank and the coordinator's broadcast land.
func settle(poll func()) {
	for round := 0; round < 3; round++ {
		poll()
		time.Sleep(20 * time.Millisecond)
	}
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
	if window <= 0 {
		return nil, fmt.Errorf("-victim-window must be positive")
	}
	vcfg := accturbo.DefaultVictimConfig()
	vcfg.TopK = topK
	vd, err := accturbo.NewVictimDetector(vcfg)
	if err != nil {
		return nil, err
	}
	return &victimTap{vd: vd, window: window, nextAt: window, peaks: map[uint64]accturbo.Victim{}}, nil
}

func (t *victimTap) observe(c capturedPacket) {
	for t.nextAt <= c.at {
		t.closeWindow()
		t.nextAt += t.window
	}
	t.vd.Observe(accturbo.DstKey(c.pkt), uint64(c.pkt.Length))
}

func (t *victimTap) closeWindow() {
	for _, v := range t.vd.Advance() {
		p, listed := t.peaks[v.Key]
		switch {
		case !listed || v.Share > p.Share:
			v.Windows = max(v.Windows, p.Windows)
			t.peaks[v.Key] = v
		case v.Windows > p.Windows:
			p.Windows = v.Windows
			t.peaks[v.Key] = p
		}
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
	sort.Slice(keys, func(i, j int) bool { return t.peaks[keys[i]].Share > t.peaks[keys[j]].Share })
	for _, k := range keys {
		v := t.peaks[k]
		fmt.Printf("  dst %s: peak %8d bytes/window (%5.1f%% share), listed %d window(s)\n",
			packet.V4AddrFromUint32(uint32(k)), v.Bytes, 100*v.Share, v.Windows)
	}
}
