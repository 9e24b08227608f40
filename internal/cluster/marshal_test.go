package cluster

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	"accturbo/internal/frame"
	"accturbo/internal/packet"
)

// TestMarshalRoundTrip drives a clusterer through a trace that grows,
// merges and spills clusters, snapshots it, restores into a fresh
// instance, and requires (a) re-marshaling reproduces the exact bytes,
// (b) the interpretable snapshots match, and (c) both instances stay
// bit-identical on every subsequent observation — the restored process
// must behave as if it had seen the whole original trace. A baseline
// configuration, Bloom sets included, has no snapshot: Restore refuses
// with ErrBaselineSnapshot.
func TestMarshalRoundTrip(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"normalize", func(c *Config) { c.Normalize = true }},
		{"sliceinit", func(c *Config) { c.SliceInit = true }},
		{"bloom", func(c *Config) { c.UseBloom = true }},
	}
	warm := equivTrace(3000, 11)
	tail := equivTrace(1000, 13)
	for _, base := range benchCombos() {
		for _, v := range variants {
			cfg := base
			v.mutate(&cfg)
			if cfg.Validate() != nil {
				continue // e.g. exhaustive + bloom
			}
			t.Run(comboName(cfg)+"/"+v.name, func(t *testing.T) {
				orig := NewOnline(cfg)
				for _, p := range warm {
					orig.Observe(p)
				}
				if !cfg.Deployed() {
					if r, err := Restore(cfg, nil); r != nil || err != ErrBaselineSnapshot {
						t.Fatalf("baseline Restore = %p, %v, want ErrBaselineSnapshot", r, err)
					}
					return
				}
				blob := orig.Marshal()

				restored, err := Restore(cfg, blob)
				if err != nil {
					t.Fatalf("Restore: %v", err)
				}
				if got := restored.Marshal(); !bytes.Equal(got, blob) {
					t.Fatalf("re-marshal differs: %d vs %d bytes", len(got), len(blob))
				}
				if !reflect.DeepEqual(restored.Snapshot(), orig.Snapshot()) {
					t.Fatal("snapshots diverge after restore")
				}
				if restored.Observed != orig.Observed {
					t.Fatalf("Observed = %d, want %d", restored.Observed, orig.Observed)
				}

				for i, p := range tail {
					oa, ra := orig.Observe(p), restored.Observe(p)
					if oa != ra {
						t.Fatalf("post-restore packet %d: orig=%+v restored=%+v", i, oa, ra)
					}
				}
				if !bytes.Equal(orig.Marshal(), restored.Marshal()) {
					t.Fatal("states diverge after identical post-restore traffic")
				}
			})
		}
	}
}

// TestSnapshotEndsAtTheWord: the deployed configuration is deployed up to
// the 64 clusters a membership table word holds; one more runs on
// Reference and, like any baseline, has no snapshot.
func TestSnapshotEndsAtTheWord(t *testing.T) {
	cfg := DefaultConfig(64, packet.HardwareFeatures())
	if !cfg.Deployed() {
		t.Fatal("64 clusters are not the deployed configuration")
	}
	cfg.MaxClusters = 65
	o := NewOnline(cfg)
	if o.baseline == nil {
		t.Fatal("65 clusters built a membership table")
	}
	if _, err := Restore(cfg, nil); err != ErrBaselineSnapshot {
		t.Fatalf("Restore = %v, want ErrBaselineSnapshot", err)
	}
}

// TestMarshalSpilledSets grows a nominal set to a few hundred values,
// admitted out of order, and checks it survives the round trip: the
// restored set must admit exactly the same values and re-marshal to the
// same bytes.
func TestMarshalSpilledSets(t *testing.T) {
	cfg := DefaultConfig(2, packet.DefaultSimulationFeatures())
	o := NewOnline(cfg)
	for i := 0; i < 192; i++ {
		p := mkPkt(64, 500, packet.Benign)
		p.SrcPort = uint16(1000 + (i*37%192)*7)
		o.Observe(p)
	}
	blob := o.Marshal()
	r, err := Restore(cfg, blob)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(r.Marshal(), blob) {
		t.Fatal("spilled-set re-marshal differs")
	}
	if !reflect.DeepEqual(r.Snapshot(), o.Snapshot()) {
		t.Fatal("spilled-set snapshots diverge")
	}
}

// TestUnmarshalRejects covers Restore's refusal paths: configuration
// fingerprint mismatch, truncation, and trailing garbage. A refusal
// returns no clusterer.
func TestUnmarshalRejects(t *testing.T) {
	cfg := DefaultConfig(4, packet.DefaultSimulationFeatures())
	o := NewOnline(cfg)
	for _, p := range equivTrace(200, 17) {
		o.Observe(p)
	}
	blob := o.Marshal()
	refused := func(t *testing.T, cfg Config, data []byte, what string) {
		t.Helper()
		if r, err := Restore(cfg, data); err == nil || r != nil {
			t.Fatalf("accepted %s (%p, %v)", what, r, err)
		}
	}
	t.Run("fingerprint", func(t *testing.T) {
		refused(t, DefaultConfig(8, packet.DefaultSimulationFeatures()), blob, "a snapshot from a different configuration")
	})
	t.Run("truncated", func(t *testing.T) {
		refused(t, cfg, blob[:len(blob)-3], "a truncated snapshot")
	})
	t.Run("trailing", func(t *testing.T) {
		refused(t, cfg, append(append([]byte{}, blob...), 0), "trailing bytes")
	})
}

// parentSnapshots are Marshal streams written by the commit before the
// membership table replaced the per-cluster sets (the same traces, run
// through that commit's clusterer), with the configurations they were
// taken under. The Bloom one is from when Online kept filters itself.
func parentSnapshots() []struct {
	file string
	cfg  Config
	seed int64
} {
	bloom := DefaultConfig(10, packet.DefaultSimulationFeatures())
	bloom.UseBloom = true
	return []struct {
		file string
		cfg  Config
		seed int64
	}{
		{"testdata/parent_exact.snap", hardwareShape(), 21},
		{"testdata/parent_bloom.snap", bloom, 22},
	}
}

// TestParentSnapshots pins the ACCSNAP1 cluster payload across the
// change of representation: a stream the previous representation wrote
// restores and re-saves byte-identically, and running the trace it was
// taken from produces the same bytes again. A Bloom stream, well-formed as
// it is, now meets a baseline clusterer and is refused unread.
func TestParentSnapshots(t *testing.T) {
	for _, c := range parentSnapshots() {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Restore(c.cfg, want)
		if !c.cfg.Deployed() {
			if err != ErrBaselineSnapshot {
				t.Errorf("%s: Restore = %v, want ErrBaselineSnapshot", c.file, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: Restore: %v", c.file, err)
		}
		if !bytes.Equal(o.Marshal(), want) {
			t.Errorf("%s: restore and re-save changed the bytes", c.file)
		}
		o = NewOnline(c.cfg)
		for _, p := range equivTrace(3000, c.seed) {
			o.Observe(p)
		}
		if !bytes.Equal(o.Marshal(), want) {
			t.Errorf("%s: the same trace no longer marshals to the same bytes", c.file)
		}
	}
}

// TestUnmarshalRejectsHostileSets patches single fields of real Marshal
// streams into what a corrupt or malicious snapshot could carry. Each
// must be refused without a panic, a long spin or a large allocation.
// The Bloom rows patch the same stream the
// way a hostile filter would have been; a Bloom clusterer is a baseline
// now and refuses them, like any stream, with ErrBaselineSnapshot.
func TestUnmarshalRejectsHostileSets(t *testing.T) {
	le := binary.LittleEndian
	// One cluster, so the first nominal set sits at a known offset.
	exact := DefaultConfig(1, packet.FeatureSet{packet.FTTL, packet.FSrcPort})
	bloom := exact
	bloom.UseBloom = true
	build := func(cfg Config, ports int) (blob []byte, set int) {
		o := NewOnline(cfg)
		for i := 0; i < ports; i++ {
			p := mkPkt(64, 500, packet.Benign)
			p.SrcPort = uint16(100 + i*3)
			o.Observe(p)
		}
		var fp frame.Enc
		o.encodeFingerprint(&fp)
		// fingerprint, nextUID, Observed, k, uid, 2×(min,max), 6 counters.
		return o.Marshal(), len(fp.B) + 8 + 8 + 4 + 8 + 2*8 + 6*8
	}
	cases := []struct {
		name  string
		cfg   Config
		patch func(b []byte, set int) []byte
	}{
		{"value beyond the space", exact, func(b []byte, set int) []byte {
			le.PutUint32(b[len(b)-4:], 1<<16)
			return b
		}},
		{"values out of order", exact, func(b []byte, set int) []byte {
			le.PutUint32(b[set+8:], le.Uint32(b[set+12:]))
			return b
		}},
		{"count beyond the stream", exact, func(b []byte, set int) []byte {
			le.PutUint32(b[set:], 1<<31)
			le.PutUint32(b[set+4:], 1<<31)
			return b[:set+8]
		}},
		{"count differs from cardinality", exact, func(b []byte, set int) []byte {
			le.PutUint32(b[set:], le.Uint32(b[set:])+1)
			return b
		}},
		{"inverted range", exact, func(b []byte, set int) []byte {
			le.PutUint32(b[set-6*8-2*8:], 200) // min of feature 0 above its max
			return b
		}},
		{"bloom word count from the wire", bloom, func(b []byte, set int) []byte {
			le.PutUint32(b[set+12:], 1<<30)
			return b
		}},
		{"bloom bit beyond the filter", bloom, func(b []byte, set int) []byte {
			b[len(b)-1] |= 0x80 // a bit beyond a narrow filter's width
			return b
		}},
		{"bloom insert count differs", bloom, func(b []byte, set int) []byte {
			le.PutUint64(b[set+4:], le.Uint64(b[set+4:])+1)
			return b
		}},
		{"bloom bits for an empty set", bloom, func(b []byte, set int) []byte {
			le.PutUint32(b[set:], 0)
			le.PutUint64(b[set+4:], 0)
			return b
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !c.cfg.Deployed() {
				blob, set := build(exact, 100)
				if _, err := Restore(c.cfg, c.patch(blob, set)); err != ErrBaselineSnapshot {
					t.Fatalf("Restore = %v, want ErrBaselineSnapshot", err)
				}
				return
			}
			blob, set := build(c.cfg, 100)
			if _, err := Restore(c.cfg, blob); err != nil {
				t.Fatalf("unpatched stream: %v", err)
			}
			if r, err := Restore(c.cfg, c.patch(blob, set)); err == nil || r != nil {
				t.Fatal("accepted the patched stream")
			}
		})
	}
}
