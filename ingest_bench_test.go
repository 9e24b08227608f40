package accturbo

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/pcap"
)

// Ingest-path benchmarks, for profiling (the measured numbers are
// benchmark/'s). Both report amortized ns per packet through the SPSC
// ring pipeline — producer work, hand-off, and the per-shard classifying
// consumer all included (they share the CPU, exactly as a deployment's
// offered load would see it). Their zero allocations are
// TestOfferFrameZeroAlloc's, with internal/pcap's
// TestMappedReaderZeroAlloc for the replay's reader.

// BenchmarkIngestOfferFrame is the wire-speed producer API: raw IPv4
// frames through the fused feature decode and exclusive lanes with
// batched publish. lanes=1 is one producer on one shard; lanes=2 is two
// producer goroutines on two shards in the hardware shape, the
// multi-feeder case.
func BenchmarkIngestOfferFrame(b *testing.B) {
	frames := frameCorpus(b, 1024)
	for _, lanes := range []int{1, 2} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			cfg := realtimeCfg(1)
			if lanes > 1 {
				cfg = HardwareConfig()
				cfg.Shards = lanes
			}
			d := build(b, NewRealTimeDefense, cfg)
			defer d.Close()
			if err := d.EnableIngest(1<<13, lanes); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for l := 0; l < lanes; l++ {
				wg.Add(1)
				go func(lane *IngestLane) {
					defer wg.Done()
					for i := l; i < b.N; i += lanes {
						for offer := true; offer; {
							switch lane.OfferFrame(frames[i%len(frames)]) {
							case OfferAccepted:
								offer = false
							case OfferFull:
								lane.Flush()
								runtime.Gosched()
							default:
								b.Error("frame rejected or stage closed")
								return
							}
						}
					}
					lane.Flush()
				}(d.Lane(l))
			}
			wg.Wait()
		})
	}
}

// BenchmarkReplayFrames is the full replay-mode pipeline on an in-memory
// capture: MappedReader iteration, fused decode, ring hand-off, and
// classification, looped over the image exactly like
// `accturbo-defend replay`.
func BenchmarkReplayFrames(b *testing.B) {
	var buf bytes.Buffer
	w, err := pcap.NewNanoWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4096; i++ {
		if err := w.Write(eventsim.Time(i)*eventsim.Microsecond, benignPacket(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	m, err := pcap.NewMappedReader(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	d := build(b, NewRealTimeDefense, realtimeCfg(1))
	if err := d.EnableIngest(1<<13, 1); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	lane := d.Lane(0)
	b.ReportAllocs()
	b.ResetTimer()
	frames := 0
	for frames < b.N {
		m.Reset()
		for frames < b.N {
			_, frame, err := m.NextFrame()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		offer:
			for {
				switch lane.OfferFrame(frame) {
				case OfferAccepted:
					frames++
					break offer
				case OfferFull:
					lane.Flush()
					runtime.Gosched()
				default:
					b.Fatal("frame rejected or stage closed")
				}
			}
		}
	}
	b.StopTimer()
	lane.Flush()
}
