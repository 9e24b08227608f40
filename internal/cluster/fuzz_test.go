package cluster

import (
	"bytes"
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
