package accturbo

import (
	"bytes"
	"io"
	"runtime"
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

// benchDefense builds a real-time pipeline with the bounded ingest
// stage enabled, mirroring cmd/accturbo-defend's replay setup.
func benchDefense(b *testing.B, shards, capacity, lanes int) *Defense {
	b.Helper()
	d := build(b, NewRealTimeDefense, realtimeCfg(shards))
	if err := d.EnableIngest(capacity, lanes); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkIngestOfferFrame is the wire-speed producer API: raw IPv4
// frames through the fused feature decode and an exclusive lane with
// batched publish.
func BenchmarkIngestOfferFrame(b *testing.B) {
	d := benchDefense(b, 1, 1<<13, 1)
	defer d.Close()
	lane := d.Lane(0)
	frames := frameCorpus(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
	offer:
		for {
			switch lane.OfferFrame(frames[i%len(frames)]) {
			case OfferAccepted:
				break offer
			case OfferFull:
				lane.Flush()
				runtime.Gosched()
			default:
				b.Fatal("frame rejected or stage closed")
			}
		}
	}
	b.StopTimer()
	lane.Flush()
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
	d := benchDefense(b, 1, 1<<13, 1)
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
