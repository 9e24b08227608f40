package cluster

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"accturbo/internal/packet"
)

// fuzzConfigs are the clusterers FuzzOnlineUnmarshal restores into:
// exact sets over the hardware and the 12-feature sets, and the same two
// with Bloom sets, which are baselines and must refuse every stream.
func fuzzConfigs() []Config {
	var out []Config
	for _, bloom := range []bool{false, true} {
		hw := hardwareShape()
		hw.UseBloom = bloom
		sim := DefaultConfig(10, packet.DefaultSimulationFeatures())
		sim.UseBloom = bloom
		out = append(out, hw, sim)
	}
	return out
}

// FuzzOnlineUnmarshal feeds Online.Unmarshal arbitrary bytes — the
// cluster payload of a snapshot read from disk or sent by a fleet peer.
// It must never panic; it must not allocate beyond a small multiple of
// the input, whatever counts the stream claims (a cell list costs four
// bytes a value, and a list grown by append may hold twice what it
// needs); a refused stream must leave the receiver's state as it was; an
// accepted one must marshal back to exactly the input. A baseline
// clusterer answers ErrBaselineSnapshot whatever the bytes.
func FuzzOnlineUnmarshal(f *testing.F) {
	cfgs := fuzzConfigs()
	for i, cfg := range cfgs {
		exact := cfg
		exact.UseBloom = false // a Bloom clusterer is offered its exact twin's streams
		o := NewOnline(exact)
		f.Add(uint8(i), o.Marshal())
		for _, p := range equivTrace(300, int64(40+i)) {
			o.Observe(p)
		}
		f.Add(uint8(i), o.Marshal())
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		cfg := cfgs[int(which)%len(cfgs)]
		o := NewOnline(cfg)
		for _, p := range equivTrace(50, 3) {
			o.Observe(p)
		}
		if !cfg.Deployed() {
			before := o.Snapshot()
			if v, u := o.Validate(data), o.Unmarshal(data); v != ErrBaselineSnapshot || u != ErrBaselineSnapshot {
				t.Fatalf("baseline Validate = %v, Unmarshal = %v, want ErrBaselineSnapshot", v, u)
			}
			if !reflect.DeepEqual(o.Snapshot(), before) {
				t.Fatal("a refused stream changed the baseline receiver")
			}
			return
		}
		before := o.Marshal()

		// Unmarshal keeps what it allocates — the cell lists — so their
		// capacity is its allocation, and unlike a heap counter it is not
		// disturbed by the fuzzing engine's own goroutines.
		held := func() (bytes int) {
			for _, l := range o.mt.lists {
				bytes += 4 * cap(l)
			}
			return bytes
		}
		verr := o.Validate(data)
		if !bytes.Equal(o.Marshal(), before) {
			t.Fatalf("Validate changed the receiver (%v)", verr)
		}
		h0 := held()
		err := o.Unmarshal(data)
		if (verr == nil) != (err == nil) {
			t.Fatalf("Validate says %v, Unmarshal says %v", verr, err)
		}
		if got, limit := held()-h0, 64*len(data)+4096; got > limit {
			t.Fatalf("Unmarshal of %d bytes allocated %d, limit %d", len(data), got, limit)
		}

		after := o.Marshal()
		if err != nil {
			if !bytes.Equal(after, before) {
				t.Fatalf("a refused stream changed the receiver (%v)", err)
			}
			return
		}
		if !bytes.Equal(after, data) {
			t.Fatal("an accepted stream does not marshal back to itself")
		}
	})
}

// fuzzFeatures is the pool FuzzOnlineMatchesReference draws feature sets
// from: span ordinals, nominals of 8 and 16 bits, and wide ordinals.
var fuzzFeatures = packet.FeatureSet{
	packet.FDstIPByte2, packet.FDstIPByte3, packet.FSrcPort, packet.FDstPort,
	packet.FProtocol, packet.FTTL, packet.FLength, packet.FSrcIPByte3, packet.FDstIP,
}

// fuzzPacket builds a packet from four bytes, each field drawn from a
// narrow band so packets recur, clusters overlap and near misses happen.
func fuzzPacket(b []byte) *packet.Packet {
	return &packet.Packet{
		SrcIP:    packet.V4(10, 0, 0, b[0]&15),
		DstIP:    packet.V4(198, 18, b[1]&3, b[1]>>2&15),
		Protocol: []packet.Proto{packet.ProtoUDP, packet.ProtoTCP, packet.ProtoICMP, 47}[b[2]>>6],
		SrcPort:  1000 + uint16(b[2]&7), DstPort: 53 + uint16(b[2]>>3&7),
		TTL: 60 + b[3]&7, Length: 100 + 40*uint16(b[3]>>3&7),
		Label: packet.Label(b[0] >> 7),
	}
}

// FuzzOnlineMatchesReference holds Online to the naive Reference on what
// the fuzzer picks: a slot count from 1 to 80 — every cell width, and
// past the 64 slots a table holds, where Online forwards to a Reference —
// a subset of fuzzFeatures, slice initialisation, and a packet stream
// with reseeds and, for the deployed configuration, Marshal→Unmarshal
// restarts in it. Every assignment and the final snapshot must be the
// Reference's.
func FuzzOnlineMatchesReference(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	stream := make([]byte, 4*64)
	r.Read(stream)
	for _, k := range []uint8{0, 3, 9, 16, 40, 63, 64} {
		f.Add(k, uint16(0x00f), k%2 == 0, stream)
		f.Add(k, uint16(0x1f3), k%2 == 1, stream)
	}
	f.Fuzz(func(t *testing.T, k uint8, mask uint16, sliceInit bool, stream []byte) {
		var feats packet.FeatureSet
		for i, feat := range fuzzFeatures {
			if mask>>i&1 != 0 {
				feats = append(feats, feat)
			}
		}
		if len(feats) == 0 {
			return
		}
		cfg := DefaultConfig(1+int(k)%80, feats)
		cfg.SliceInit = sliceInit
		o, ref := NewOnline(cfg), NewReference(cfg)
		for i := 0; i+4 <= len(stream); i += 4 {
			switch b := stream[i : i+4]; {
			case b[0] == 0xff:
				o.Reseed()
				ref.Reseed()
			case b[0] == 0xfe && cfg.Deployed():
				restored := NewOnline(cfg)
				if err := restored.Unmarshal(o.Marshal()); err != nil {
					t.Fatalf("packet %d: Unmarshal: %v", i/4, err)
				}
				o = restored
			default:
				p := fuzzPacket(b)
				if got, want := o.Observe(p), ref.Observe(p); got != want {
					t.Fatalf("packet %d: assignment %+v, reference %+v", i/4, got, want)
				}
			}
		}
		if got, want := o.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshots diverge:\nonline    %+v\nreference %+v", got, want)
		}
	})
}
