package main

import (
	"bytes"
	"fmt"

	"accturbo/internal/eventsim"
	"accturbo/internal/faults"
	"accturbo/internal/packet"
	"accturbo/internal/pcap"
	"accturbo/internal/traffic"
)

// Every input is made here, from the seed alone. traffic.PulseWave takes
// no seed (its factories are fixed), so the pulse workloads let the seed
// move the link rate by up to 1 %: the scenario keeps its shape while
// every timestamp and the packet count change with the seed.

// jitter scales base by 1 + u, u in [0, 0.01) drawn from the seed.
func jitter(base float64, seed int64) float64 {
	u := faults.NewRand(faults.DeriveSeed(uint64(seed), 0x70756c7365)).Float64()
	return base * (1 + u/100)
}

// pulseSource is the whole 50 s morphing pulse wave of §2.2 at the given
// link rate: four benign aggregates at about capacity, four 5 s pulses
// at three times capacity, each on another vector and target.
func pulseSource(link float64) traffic.Source {
	return traffic.PulseWave(link, 3*link, 5*eventsim.Second, true)
}

// pulseUntil is the length of the pulse-wave scenario.
const pulseUntil = 50 * eventsim.Second

// Sizing: the full-size trace workloads hold about 100 k packets, and
// scale shrinks them for the tests.
func benignDiverseSource(seed int64, scale float64) traffic.Source {
	return traffic.NewBackground(traffic.BackgroundConfig{
		Rate: 80e6, End: eventsim.FromSeconds(10 * scale), Seed: seed,
	})
}

func pulseWaveLink(seed int64, scale float64) float64 { return jitter(1.5e6*scale, seed) }

func simPulseLink(seed int64, scale float64) float64 { return jitter(10e6*scale, seed) }

// cicddosSource is the compressed attack day: background plus the nine
// labelled vectors, one after another, at one victim.
func cicddosSource(seed int64, scale float64) (traffic.Source, []traffic.AttackWindow) {
	return traffic.CICDDoSDay(5e6*scale, 15e6*scale, 2*eventsim.Second, eventsim.Second, seed)
}

// cicddosVictim is the address every CICDDoSDay vector floods.
var cicddosVictim = packet.V4Addr{198, 18, 99, 1}

// digest folds packets into an FNV-1a style 64-bit value, one multiply
// per field; it covers every field the system under test can read.
type digest struct {
	h uint64
	n uint64
}

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) mix(v uint64) { d.h = (d.h ^ v) * 1099511628211 }

func (d *digest) add(tp traffic.TimedPacket) {
	p := tp.Pkt
	src, dst := p.SrcIP.As4(), p.DstIP.As4()
	d.mix(uint64(tp.At))
	d.mix(uint64(packet.V4Addr(src).Uint32())<<32 | uint64(packet.V4Addr(dst).Uint32()))
	d.mix(uint64(p.SrcPort)<<48 | uint64(p.DstPort)<<32 | uint64(p.Length)<<16 | uint64(p.ID))
	d.mix(uint64(p.TTL)<<24 | uint64(p.Protocol)<<16 | uint64(p.Flags)<<8 | uint64(p.Label))
	d.n++
}

func (d *digest) String() string { return fmt.Sprintf("%016x/n=%d", d.h, d.n) }

// traceInput is one generated packet trace in the two forms the doors
// consume: decoded packets with timestamps, and a nano-pcap image.
type traceInput struct {
	pkts    []traffic.TimedPacket
	image   []byte
	digest  string
	windows []traffic.AttackWindow
}

// collect drains src into memory, a lap of the set-up clock per piece.
func collect(src traffic.Source, c *setupClock) []traffic.TimedPacket {
	var pkts []traffic.TimedPacket
	for tp, ok := src.Next(); ok; tp, ok = src.Next() {
		c.lapEvery(len(pkts))
		pkts = append(pkts, tp)
	}
	return pkts
}

// buildTrace drains src into memory and renders the capture image.
func buildTrace(src traffic.Source, windows []traffic.AttackWindow, c *setupClock) (*traceInput, error) {
	in := &traceInput{pkts: collect(src, c), windows: windows}
	if len(in.pkts) == 0 {
		return nil, fmt.Errorf("generator produced no packets")
	}
	dg := newDigest()
	size := 24
	for i, tp := range in.pkts {
		c.lapEvery(i)
		dg.add(tp)
		size += 16 + tp.Pkt.WireLen()
	}
	in.digest = dg.String()
	buf := bytes.NewBuffer(make([]byte, 0, size))
	w, err := pcap.NewNanoWriter(buf)
	if err != nil {
		return nil, err
	}
	for i, tp := range in.pkts {
		c.lapEvery(i)
		if err := w.Write(tp.At, tp.Pkt); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	in.image = buf.Bytes()
	return in, nil
}

// traceSource returns the generator of a trace workload.
func traceSource(workload string, seed int64, scale float64) (traffic.Source, []traffic.AttackWindow) {
	switch workload {
	case "benign_diverse":
		return benignDiverseSource(seed, scale), nil
	case "pulse_wave":
		return pulseSource(pulseWaveLink(seed, scale)), nil
	case "cicddos_mix":
		return cicddosSource(seed, scale)
	}
	panic("not a trace workload: " + workload)
}
