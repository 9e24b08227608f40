package accturbo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func realtimeCfg(shards int) Config {
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.PollInterval = FromDuration(5 * time.Millisecond)
	cfg.DeployDelay = FromDuration(time.Millisecond)
	return cfg
}

// laneTally is one lane producer's account of OfferFrame outcomes.
type laneTally struct{ offered, accepted, full, rejected uint64 }

// offerUntil offers frames on lane l (no retry: a full ring sheds) until
// it has offered max frames or stop is set, with a junk frame every 97th
// offer, then flushes per the lane contract.
func offerUntil(t *testing.T, lane *IngestLane, frames [][]byte, max int, stop *atomic.Bool) laneTally {
	var c laneTally
	junk := []byte{0x60, 0x00, 0x00}
	for i := 0; i < max && !stop.Load(); i++ {
		f := frames[i%len(frames)]
		if i%97 == 96 {
			f = junk
		}
		c.offered++
		switch res := lane.OfferFrame(f); res {
		case OfferAccepted:
			c.accepted++
		case OfferFull:
			c.full++
		case OfferRejected:
			c.rejected++
		default:
			t.Errorf("offer %d: unexpected result %d before Close", i, res)
		}
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	lane.Flush()
	return c
}

// runLanes drives one producer goroutine per lane through offerUntil,
// closes the defense once they have all flushed (stopAfter > 0 cuts them
// short mid-stream), and checks the ledger: every offer is accepted,
// shed or rejected, and every accepted frame is classified by Close.
func runLanes(t *testing.T, d *Defense, lanes, perLane int, stopAfter time.Duration) {
	t.Helper()
	frames := frameCorpus(t, 512)
	tallies := make([]laneTally, lanes)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			tallies[l] = offerUntil(t, d.Lane(l), frames, perLane, &stop)
		}(l)
	}
	if stopAfter > 0 {
		time.Sleep(stopAfter)
		stop.Store(true)
	}
	wg.Wait()
	d.Close()
	var sum laneTally
	for _, c := range tallies {
		sum.offered += c.offered
		sum.accepted += c.accepted
		sum.full += c.full
		sum.rejected += c.rejected
	}
	if sum.offered != sum.accepted+sum.full+sum.rejected {
		t.Fatalf("offered %d != accepted %d + full %d + rejected %d", sum.offered, sum.accepted, sum.full, sum.rejected)
	}
	if got := d.PacketsObserved(); got != sum.accepted {
		t.Fatalf("observed %d frames, but %d offers were accepted", got, sum.accepted)
	}
	if d.IngestShed() != sum.full || d.IngestRejected() != sum.rejected {
		t.Fatalf("shed %d / rejected %d counters, want %d / %d",
			d.IngestShed(), d.IngestRejected(), sum.full, sum.rejected)
	}
}

// TestIngestConservation: every OfferFrame outcome is accounted —
// accepted frames are all classified by Close, shed and malformed ones
// are all counted — across concurrent lanes on small rings.
func TestIngestConservation(t *testing.T) {
	d := build(t, NewRealTimeDefense, realtimeCfg(4))
	if err := d.EnableIngest(1024, 4); err != nil {
		t.Fatal(err)
	}
	runLanes(t, d, 4, 20000, 0)
}

// TestIngestCloseWhileOffering closes mid-stream: producers are cut off
// at an arbitrary point, flush, and Close must classify exactly what was
// accepted; an offer that arrives after Close is refused and counted as
// shed. This is the -race gate on the ring close protocol.
func TestIngestCloseWhileOffering(t *testing.T) {
	for iter := 0; iter < 8; iter++ {
		d := build(t, NewRealTimeDefense, realtimeCfg(2))
		if err := d.EnableIngest(256, 3); err != nil {
			t.Fatal(err)
		}
		lane := d.Lane(0)
		runLanes(t, d, 3, 1<<30, time.Duration(iter+1)*200*time.Microsecond)
		shed := d.IngestShed()
		if res := lane.OfferFrame(frameCorpus(t, 1)[0]); res != OfferClosed {
			t.Fatalf("iter %d: offer after Close returned %d, want OfferClosed", iter, res)
		}
		if d.IngestShed() != shed+1 {
			t.Fatalf("iter %d: late offer not counted as shed", iter)
		}
	}
}

// TestIngestFullRingSheds: unpublished pushes are invisible to the
// consumer, so a two-slot ring is deterministically full at the third
// unflushed offer — which sheds, counts, and leaves the first two to be
// classified.
func TestIngestFullRingSheds(t *testing.T) {
	d := build(t, NewRealTimeDefense, realtimeCfg(1))
	if err := d.EnableIngest(2, 1); err != nil {
		t.Fatal(err)
	}
	lane := d.Lane(0)
	frames := frameCorpus(t, 3)
	want := []OfferResult{OfferAccepted, OfferAccepted, OfferFull}
	for i, f := range frames {
		if res := lane.OfferFrame(f); res != want[i] {
			t.Fatalf("offer %d returned %d, want %d", i, res, want[i])
		}
	}
	lane.Flush()
	d.Close()
	if d.IngestShed() != 1 || d.PacketsObserved() != 2 {
		t.Fatalf("shed %d observed %d, want 1 and 2", d.IngestShed(), d.PacketsObserved())
	}
}

// frameCorpus marshals benign packets to wire frames for the lane path.
func frameCorpus(t testing.TB, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		p := benignPacket(i)
		frames[i] = make([]byte, p.WireLen())
		if err := p.MarshalTo(frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// TestIngestLaneFrames drives the wire-speed frame path end to end,
// lossless: frames offered on two lanes at once (batched publish, retry
// on a full ring, a final Flush) are all classified, and malformed bytes
// are rejected and counted.
func TestIngestLaneFrames(t *testing.T) {
	d := build(t, NewRealTimeDefense, realtimeCfg(4))
	if err := d.EnableIngest(4096, 2); err != nil {
		t.Fatal(err)
	}
	frames := frameCorpus(t, 3000)
	junk := []byte{0x60, 0x00, 0x00}
	var wg sync.WaitGroup
	for l := 0; l < 2; l++ {
		wg.Add(1)
		go func(lane *IngestLane) {
			defer wg.Done()
			for i, f := range frames {
				for {
					res := lane.OfferFrame(f)
					if res == OfferAccepted {
						break
					}
					if res != OfferFull {
						t.Errorf("frame %d: unexpected result %d", i, res)
						return
					}
					lane.Flush()
					runtime.Gosched()
				}
				if i%500 == 0 {
					if res := lane.OfferFrame(junk); res != OfferRejected {
						t.Errorf("junk frame returned %d, want OfferRejected", res)
					}
				}
			}
			lane.Flush()
		}(d.Lane(l))
	}
	wg.Wait()
	d.Close()
	if got := d.IngestRejected(); got != 12 {
		t.Fatalf("IngestRejected = %d, want 12", got)
	}
	if want := uint64(2 * len(frames)); d.PacketsObserved() != want {
		t.Fatalf("observed %d, want %d (shed %d)", d.PacketsObserved(), want, d.IngestShed())
	}
}

// TestIngestHealthDepth: Health reports the ring matrix's capacity and
// current depth.
func TestIngestHealthDepth(t *testing.T) {
	d := build(t, NewRealTimeDefense, realtimeCfg(2))
	if err := d.EnableIngest(512, 2); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h := d.Health()
	if h.IngestCapacity != 512 {
		t.Fatalf("IngestCapacity = %d, want the 512 requested", h.IngestCapacity)
	}
	if h.IngestDepth < 0 || h.IngestDepth > h.IngestCapacity {
		t.Fatalf("IngestDepth = %d out of [0,%d]", h.IngestDepth, h.IngestCapacity)
	}
}

// TestOfferFrameZeroAlloc gates the wire-speed producer hot path:
// parse, shard, push, and batched publish allocate nothing
// (BenchmarkIngestOfferFrame). BenchmarkReplayFrames is this path fed by
// a pcap.MappedReader, whose iteration internal/pcap's
// TestMappedReaderZeroAlloc holds to zero allocations as well.
func TestOfferFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := build(t, NewRealTimeDefense, realtimeCfg(2))
	if err := d.EnableIngest(1<<16, 1); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lane := d.Lane(0)
	frames := frameCorpus(t, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			for lane.OfferFrame(f) == OfferFull {
				lane.Flush()
				runtime.Gosched()
			}
		}
		lane.Flush()
	})
	if allocs != 0 {
		t.Fatalf("OfferFrame hot path allocates %v per run, want 0", allocs)
	}
}
