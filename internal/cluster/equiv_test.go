package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"accturbo/internal/packet"
)

// equivTrace mixes recurring aggregates (so packets hit existing
// clusters at distance 0) with fully random packets (so clusters grow,
// merge, and spill nominal sets) — the cases where the fast path and
// the naive reference could diverge.
func equivTrace(n int, seed int64) []*packet.Packet {
	r := rand.New(rand.NewSource(seed))
	recurring := benchTrace(64, seed+1)
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		if r.Intn(2) == 0 {
			pkts[i] = recurring[r.Intn(len(recurring))]
			continue
		}
		p := randPkt(r)
		p.SrcIP = packet.V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		p.DstIP = packet.V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		p.SrcPort = uint16(r.Intn(65536))
		p.DstPort = uint16(r.Intn(65536))
		pkts[i] = p
	}
	return pkts
}

// TestFastPathMatchesReference drives NewOnline and the naive
// implementation through an identical trace — including mid-trace
// ResetStats, Reseed, and (for Euclidean) SeedCenters — and requires
// bit-identical assignments and snapshots for every valid configuration.
// For the deployed configuration (manhattan/fast over exact sets) that
// holds the table-driven path to its oracle: the integer scan sums
// exactly what the reference accumulates in floats. For the baselines,
// Bloom sets included, it holds the forwarding: every call must reach
// the Reference an Online owns.
func TestFastPathMatchesReference(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"normalize", func(c *Config) { c.Normalize = true }},
		{"sliceinit", func(c *Config) { c.SliceInit = true }},
	}
	pkts := equivTrace(3000, 7)
	centers := make([][]float64, 4)
	nf := len(packet.DefaultSimulationFeatures())
	for j := range centers {
		centers[j] = make([]float64, nf)
		for f := range centers[j] {
			centers[j][f] = float64((j*37 + f*11) % 256)
		}
	}
	for _, base := range benchCombos() {
		for _, v := range variants {
			cfg := base
			v.mutate(&cfg)
			t.Run(comboName(cfg)+"/"+v.name, func(t *testing.T) {
				fast := NewOnline(cfg)
				ref := NewReference(cfg)
				for i, p := range pkts {
					fa, ra := fast.Observe(p), ref.Observe(p)
					if fa != ra {
						t.Fatalf("packet %d: fast=%+v ref=%+v", i, fa, ra)
					}
					switch i {
					case 1000:
						fast.ResetStats()
						ref.ResetStats()
					case 2000:
						fast.Reseed()
						ref.Reseed()
					case 2500:
						if cfg.Distance == Euclidean {
							fast.baseline.SeedCenters(centers)
							ref.SeedCenters(centers)
						}
					}
				}
				if len(fast.Snapshot()) != len(ref.Snapshot()) {
					t.Fatalf("cluster counts diverge: fast=%d ref=%d", len(fast.Snapshot()), len(ref.Snapshot()))
				}
				fs, rs := fast.Snapshot(), ref.Snapshot()
				if !reflect.DeepEqual(fs, rs) {
					for i := range fs {
						if !reflect.DeepEqual(fs[i], rs[i]) {
							t.Errorf("cluster %d: fast=%+v ref=%+v", i, fs[i], rs[i])
						}
					}
					t.Fatal("snapshots diverge")
				}
			})
		}
	}
}

// TestFastPathMatchesReferenceShapes repeats the equivalence run over
// the shapes the membership table is sensitive to: cluster counts on
// both sides of a cell-width boundary (8|9, 16|17, 32|33), the one-slot
// table, the full word (64) and one past it (65, which Online forwards
// to a Reference; these four only for the deployed combination), over
// the deployed configuration (hardware features, slice initialisation),
// a set carrying the 8-bit protocol nominal, the simulator's (three
// address bytes, no nominal, slice initialisation), a set with no
// byte-wide ordinal, where the table's verdict is left to the arithmetic
// check of the wide ones, and two nominals around one wide ordinal,
// where that check decides near misses too. Midway, a deployed clusterer
// is replaced by a fresh one restored from its own Marshal output, which
// must carry on bit-identically.
func TestFastPathMatchesReferenceShapes(t *testing.T) {
	shapes := []struct {
		name      string
		feats     packet.FeatureSet
		sliceInit bool
	}{
		{"hw", packet.HardwareFeatures(), true},
		{"proto", packet.FeatureSet{packet.FProtocol, packet.FDstIPByte3, packet.FSrcPort, packet.FLength}, false},
		{"sim", simulatorShape(true).Features, true},
		{"wide", packet.FeatureSet{packet.FLength, packet.FSrcIP, packet.FDstPort}, false},
		{"ports-len", packet.FeatureSet{packet.FSrcPort, packet.FLength, packet.FDstPort}, false},
	}
	pkts := equivTrace(2400, 19)
	r := rand.New(rand.NewSource(23))
	protos := []packet.Proto{packet.ProtoUDP, packet.ProtoTCP, packet.ProtoICMP, 47, 50}
	for i, p := range pkts {
		q := *p
		q.Protocol = protos[r.Intn(len(protos))]
		if r.Intn(8) == 0 {
			q.Protocol = packet.Proto(r.Intn(256))
		}
		pkts[i] = &q
	}
	for _, sh := range shapes {
		for _, k := range []int{1, 4, 8, 9, 16, 17, 33, 64, 65} {
			for _, base := range benchCombos() {
				if (k == 16 || k > 17) && !base.Deployed() {
					continue
				}
				cfg := base
				cfg.MaxClusters, cfg.Features, cfg.SliceInit = k, sh.feats, sh.sliceInit
				t.Run(fmt.Sprintf("%s/k=%d/%s", sh.name, k, comboName(cfg)), func(t *testing.T) {
					fast, ref := NewOnline(cfg), NewReference(cfg)
					for i, p := range pkts {
						if fa, ra := fast.Observe(p), ref.Observe(p); fa != ra {
							t.Fatalf("packet %d: fast=%+v ref=%+v", i, fa, ra)
						}
						if i == 800 {
							fast.Reseed()
							ref.Reseed()
						}
						if i == 1600 && cfg.Deployed() {
							restored, err := Restore(cfg, fast.Marshal())
							if err != nil {
								t.Fatalf("Restore: %v", err)
							}
							fast = restored
						}
					}
					if fs, rs := fast.Snapshot(), ref.Snapshot(); !reflect.DeepEqual(fs, rs) {
						t.Fatalf("snapshots diverge:\nfast=%+v\nref=%+v", fs, rs)
					}
				})
			}
		}
	}
}
