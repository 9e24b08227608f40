package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"accturbo/internal/packet"
)

// coverageMatchesRanges holds the table's span cells to the ranges they
// are derived from: bit c of cell v is set exactly when slot c is seeded
// and its [min, max] at that feature contains v, so an unseeded slot has
// no bit anywhere. It also checks that every ordinal feature is either a
// span or a wide position, never both, and that each byte-wide one has a
// span.
func coverageMatchesRanges(o *Online) error {
	if got, want := len(o.mt.spans)+len(o.widePos), len(o.ordPos); got != want {
		return fmt.Errorf("%d spans + %d wide positions for %d ordinal features", len(o.mt.spans), len(o.widePos), want)
	}
	for _, f := range o.widePos {
		if o.feats[f].Bits() <= spanBits {
			return fmt.Errorf("byte-wide %v at position %d has no span", o.feats[f], f)
		}
	}
	for i, sp := range o.mt.spans {
		if o.feats[sp.pos].Nominal() || o.feats[sp.pos].Bits() > spanBits || o.spanIdx[sp.pos] != i {
			return fmt.Errorf("span %d sits at position %d (%v)", i, sp.pos, o.feats[sp.pos])
		}
		width := 1 << o.mt.lw // bits per cell
		if len(sp.cells)*64 != 256*width {
			return fmt.Errorf("span %d has %d cell words for 256 cells of %d bits", i, len(sp.cells), width)
		}
		for v := 0; v < 256; v++ {
			for slot := 0; slot < width; slot++ {
				at := v*width + slot // the bit's place in the packed words
				got := sp.cells[at/64]>>(at%64)&1 != 0
				want := slot < len(o.clusters) &&
					o.min[slot*o.nf+sp.pos] <= uint32(v) && uint32(v) <= o.max[slot*o.nf+sp.pos]
				if got != want {
					return fmt.Errorf("span %d (%v) value %d slot %d: bit %v, range says %v (%d clusters)",
						i, o.feats[sp.pos], v, slot, got, want, len(o.clusters))
				}
			}
		}
	}
	return nil
}

// walkPacket draws from a few narrow bands, so packets recur, clusters
// overlap and exhaustive search finds merges worth making, with one in
// eight drawn from the whole space.
func walkPacket(r *rand.Rand) *packet.Packet {
	if r.Intn(8) == 0 {
		p := randPkt(r)
		p.SrcIP = packet.V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		p.DstIP = packet.V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		p.SrcPort, p.DstPort = uint16(r.Intn(65536)), uint16(r.Intn(65536))
		return p
	}
	band := r.Intn(5)
	return &packet.Packet{
		SrcIP:    packet.V4(10, byte(band), byte(r.Intn(4)), byte(r.Intn(256))),
		DstIP:    packet.V4(198, byte(18+band%2), byte(60*band+r.Intn(12)), byte(40*band+r.Intn(24))),
		Protocol: packet.ProtoUDP,
		SrcPort:  uint16(1024 + r.Intn(6)), DstPort: uint16(53 + band),
		TTL: uint8(48 + 16*band + r.Intn(4)), Length: uint16(100*band + r.Intn(40)),
		Label: packet.Label(r.Intn(2)),
	}
}

// walkShapes are the feature sets the span cells are sensitive to: the
// deployed one, one with no nominal feature, one with no byte-wide
// ordinal, and one whose table verdict a wide ordinal (ip.len) can still
// overturn.
var walkShapes = []struct {
	name  string
	feats packet.FeatureSet
}{
	{"hw", packet.HardwareFeatures()},
	{"no-nominal", packet.FeatureSet{packet.FDstIPByte1, packet.FDstIPByte2, packet.FDstIPByte3}},
	{"no-span", packet.FeatureSet{packet.FLength, packet.FSrcPort}},
	{"one-wide", packet.FeatureSet{packet.FDstIPByte3, packet.FLength, packet.FTTL, packet.FDstPort}},
}

// TestCoverageTableRandomWalk drives the clusterer through a seeded walk
// of ObserveFeatures, Reseed and Marshal→Restore over cells of every
// width, one byte to a whole word, and checks at every step that the
// span cells say what the ranges say, that the assignment is the
// Reference's, and that closest — whichever of the table's two answers
// or the scan it took — names the cluster and the distance the scan
// alone returns after the same gather. The Bloom and exhaustive rows are
// baselines: Online forwards them, so there is no table to check and no
// snapshot to take, and what the walk holds is that forwarded
// assignments, merges included, are the Reference's.
func TestCoverageTableRandomWalk(t *testing.T) {
	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"fast/exact", func(*Config) {}},
		{"fast/bloom", func(c *Config) { c.UseBloom = true }},
		{"exhaustive/exact", func(c *Config) { c.Search = Exhaustive }},
		{"fast/exact/sliceinit", func(c *Config) { c.SliceInit = true }},
	}
	for _, sh := range walkShapes {
		nominal, nears := false, 0 // nears: steps of this shape's walks the table answered at distance one
		for _, f := range sh.feats {
			nominal = nominal || f.Nominal()
		}
		for _, k := range []int{4, 8, 10, 16, 17, 64} {
			for _, m := range modes {
				cfg := DefaultConfig(k, sh.feats)
				m.mutate(&cfg)
				t.Run(fmt.Sprintf("%s/k=%d/%s", sh.name, k, m.name), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(41 + k)))
					o, ref := NewOnline(cfg), NewReference(cfg)
					vals := make([]uint32, len(sh.feats))
					merges, deployed := 0, cfg.Deployed()
					for step := 0; step < 400; step++ {
						switch op := r.Intn(100); {
						case op < 94:
							p := walkPacket(r)
							sh.feats.Extract(p, vals)
							if deployed && len(o.Snapshot()) > 0 {
								ci, d, near := o.closest(vals)
								if si, sd := o.scanManhattanRaw(vals); ci != si || d != sd {
									t.Fatalf("step %d: closest = (%d, %v), near %d; the scan alone = (%d, %v)", step, ci, d, near, si, sd)
								}
								if near >= 0 {
									nears++
								}
							}
							got, want := o.ObserveFeatures(vals, uint64(p.Size()), p.Label == packet.Malicious), ref.Observe(p)
							if got != want {
								t.Fatalf("step %d: assignment %+v, reference %+v", step, got, want)
							}
							if got.Created && len(o.Snapshot()) == k && cfg.Search == Exhaustive {
								merges++
							}
						case op < 97:
							o.Reseed()
							ref.Reseed()
						case deployed:
							restored, err := Restore(cfg, o.Marshal())
							if err != nil {
								t.Fatalf("step %d: Restore: %v", step, err)
							}
							o = restored
						}
						if !deployed {
							continue
						}
						if err := coverageMatchesRanges(o); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
					if cfg.Search == Exhaustive && merges == 0 {
						t.Fatal("the walk never merged two clusters")
					}
				})
			}
		}
		if nominal != (nears > 0) {
			t.Errorf("%s: %d near misses over the walks", sh.name, nears)
		}
	}
}

// TestObserveFeaturesRejectsOutOfSpaceValue: a value beyond a byte at a
// byte-wide ordinal position is a caller bug and panics, as an
// out-of-space nominal value does — whether or not the nominal features
// have already excluded every cluster — rather than being answered from
// a neighbouring feature's cells.
func TestObserveFeaturesRejectsOutOfSpaceValue(t *testing.T) {
	for _, k := range []int{4, 10} {
		for _, sliceInit := range []bool{false, true} {
			for _, known := range []bool{false, true} {
				cfg := DefaultConfig(k, packet.HardwareFeatures())
				cfg.SliceInit = sliceInit
				o := NewOnline(cfg)
				// Give every cluster port 80 → 53, so that a packet
				// between those ports reaches the span cells and one from
				// an unknown port does not.
				for b := 0; b < 256; b++ {
					o.ObserveFeatures([]uint32{uint32(b), uint32(b), 80, 53}, 100, false)
				}
				// Were the rows contiguous, value 256+v of one feature
				// would read cell v of the next, which every cluster
				// covers at a byte that tiles the space.
				vals := []uint32{256 + 7, 7, 80, 53}
				if !known {
					vals[2] = 81
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("k=%d sliceInit=%v known=%v: out-of-space value did not panic", k, sliceInit, known)
						}
					}()
					a := o.ObserveFeatures(vals, 100, false)
					t.Logf("assigned %+v", a)
				}()
			}
		}
	}
}
