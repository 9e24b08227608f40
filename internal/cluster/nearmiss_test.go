package cluster

import (
	"fmt"
	"math"
	"testing"

	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
	"accturbo/internal/sketch"
	"accturbo/internal/traffic"
)

// nmPkt is a UDP packet that differs from its siblings only in the
// fields the directed near-miss cases turn on.
func nmPkt(dst3 byte, length, sport, dport uint16) *packet.Packet {
	return &packet.Packet{
		SrcIP: packet.V4(10, 0, 0, 1), DstIP: packet.V4(198, 18, 0, dst3),
		Protocol: packet.ProtoUDP, TTL: 64, Length: length,
		SrcPort: sport, DstPort: dport,
	}
}

// answer is what closest said about a packet: the cluster, its distance
// and, for a distance-one answer given by the table, the one nominal
// feature (index into mt.feats) to admit. near < 0 with dist > 0 means the
// answer is the scan's.
type answer struct {
	ci   int
	dist float64
	near int
}

// nmStep is one packet of a directed case: observed by the clusterer and
// the Reference alike, after closest has been asked for want (nil: the
// step only builds state).
type nmStep struct {
	pkt  *packet.Packet
	want *answer
}

// tableLayouts are the cell widths one clusterer configuration is run
// at: the byte its cluster count needs, and a whole word. The Bloom layer
// is the ablation baseline, which has no table: Online forwards it, and
// only its assignments are held to the Reference's.
var tableLayouts = []struct {
	name  string
	bloom bool
	slots int // build the cells for this many slots; 0 = MaxClusters
}{
	{"exact", false, 0},
	{"bloom", true, 0},
	{"exact/64bit", false, 64},
}

// runNearMissCase drives steps through every table layout, holding closest
// to each step's expectation and every assignment to the Reference's.
func runNearMissCase(t *testing.T, cfg Config, steps []nmStep) {
	t.Helper()
	for _, l := range tableLayouts {
		cfg := cfg
		cfg.UseBloom = l.bloom
		t.Run(l.name, func(t *testing.T) {
			o, ref := newOnline(cfg, max(l.slots, cfg.MaxClusters)), NewReference(cfg)
			vals := make([]uint32, len(cfg.Features))
			for i, s := range steps {
				cfg.Features.Extract(s.pkt, vals)
				if s.want != nil && cfg.Deployed() {
					ci, d, near := o.closest(vals)
					if got := (answer{ci, d, near}); got != *s.want {
						t.Fatalf("step %d: closest = %+v, want %+v", i, got, *s.want)
					}
				}
				if got, want := o.Observe(s.pkt), ref.Observe(s.pkt); got != want {
					t.Fatalf("step %d: assignment %+v, reference %+v", i, got, want)
				}
			}
		})
	}
}

// TestNearMissTieBreaks pins the cases the distance-one answer rests on,
// not just the traces that happen to exercise it.
func TestNearMissTieBreaks(t *testing.T) {
	// (1) Cluster 0 admits every nominal value of the probe but its byte
	// range ends one short (shape B, distance 1); cluster 1 contains the
	// byte and misses one port (shape A, distance 1). Some cluster admits
	// all the nominals, so the table must not answer: the scan runs and
	// the tie goes to the lower index.
	t.Run("shapeB-below-shapeA", func(t *testing.T) {
		cfg := DefaultConfig(2, packet.FeatureSet{packet.FDstIPByte3, packet.FSrcPort, packet.FDstPort})
		runNearMissCase(t, cfg, []nmStep{
			{pkt: nmPkt(10, 100, 1000, 53)},                            // seeds 0: [10,10] {1000} {53}
			{pkt: nmPkt(12, 100, 2000, 80)},                            // seeds 1: [12,12] {2000} {80}
			{pkt: nmPkt(11, 100, 2000, 80), want: &answer{1, 1, -1}},   // shape B alone: scanned; 1 grows to [11,12]
			{pkt: nmPkt(12, 100, 2000, 53), want: &answer{1, 1, 1}},    // shape A alone: 1 admits dport 53
			{pkt: nmPkt(11, 100, 1000, 53), want: &answer{0, 1, -1}},   // both shapes: scanned, lower index
			{pkt: nmPkt(11, 100, 1000, 53), want: &answer{0, 0, -1}},   // now covered
			{pkt: nmPkt(12, 100, 3000, 9999), want: &answer{1, 2, -1}}, // two misses inside the range: scanned
		})
	})

	// (2) Two shape-A candidates as far as the table can tell; ip.len has
	// no cells. The lower one fails it, so the higher wins at distance 1;
	// when both fail it nothing is at distance 1 and the scan runs.
	t.Run("wide-ordinal-overturns", func(t *testing.T) {
		cfg := DefaultConfig(2, packet.FeatureSet{packet.FSrcPort, packet.FLength, packet.FDstPort})
		runNearMissCase(t, cfg, []nmStep{
			{pkt: nmPkt(0, 100, 1000, 53)},                            // seeds 0: len [100,100]
			{pkt: nmPkt(0, 500, 2000, 53)},                            // seeds 1: len [500,500]
			{pkt: nmPkt(0, 500, 3000, 53), want: &answer{1, 1, 0}},    // 0 fails ip.len, 1 admits sport 3000
			{pkt: nmPkt(0, 100, 3001, 53), want: &answer{0, 1, 0}},    // and the lower one when it passes
			{pkt: nmPkt(0, 300, 4000, 53), want: &answer{0, 201, -1}}, // both fail: scanned, tie to the lower
			{pkt: nmPkt(0, 300, 4000, 53), want: &answer{0, 0, -1}},   // covered, through the same wide check
			{pkt: nmPkt(0, 100, 3000, 53), want: &answer{0, 1, -1}},   // 1 admits both ports but not the length: scanned
		})
	})

	// (3) Slice-initialised clusters start with empty sets: every cluster
	// misses at both ports, none exactly once, so the first packets of a
	// window are the scan's. The tile that took a port is then one miss
	// away from that port's next packet.
	t.Run("empty-sets-scan", func(t *testing.T) {
		cfg := hardwareShape()
		p := func(dst2, dst3 byte, sport, dport uint16) *packet.Packet {
			q := nmPkt(dst3, 100, sport, dport)
			q.DstIP = packet.V4(198, 18, dst2, dst3)
			return q
		}
		runNearMissCase(t, cfg, []nmStep{
			{pkt: p(200, 7, 1000, 53), want: &answer{3, 2, -1}}, // tile 3 holds byte 200
			{pkt: p(200, 9, 1001, 53), want: &answer{3, 1, 0}},  // sport unseen, dport admitted
			{pkt: p(10, 9, 1001, 53), want: &answer{0, 2, -1}},  // tile 0 is still empty
			{pkt: p(10, 9, 1001, 80), want: &answer{0, 1, 1}},
			{pkt: p(10, 9, 1001, 80), want: &answer{0, 0, -1}},
		})
	})
}

// TestNearMissBloomFalsePositive: the filter claims a port the cluster
// never admitted, which turns a packet two real misses away into one at
// distance 1. A Bloom clusterer is the Reference behind an Online, so the
// forwarded answer is the filter's, false positive included.
func TestNearMissBloomFalsePositive(t *testing.T) {
	cfg := DefaultConfig(1, packet.FeatureSet{packet.FTTL, packet.FSrcPort, packet.FDstPort})
	cfg.UseBloom = true
	// inFilter reports whether a filter holding the values of `of` would
	// claim v.
	inFilter := func(v uint16, of ...uint16) bool {
		set := map[uint64]bool{}
		for _, u := range of {
			for h := 0; h < bloomHashes; h++ {
				set[sketch.BloomPosition(h, uint64(u), bloomBits)] = true
			}
		}
		for h := 0; h < bloomHashes; h++ {
			if !set[sketch.BloomPosition(h, uint64(v), bloomBits)] {
				return false
			}
		}
		return true
	}
	// The cluster admits dport 53 and enough sports to fill a third of its
	// filter's bits (about one unadmitted port in 20 is then claimed). Find a
	// sport it never admitted that its filter claims, and a dport its
	// filter does not.
	sports := make([]uint16, 600)
	for i := range sports {
		sports[i] = uint16(1000 + i)
	}
	fp, fresh := uint16(2000), uint16(2000)
	for !inFilter(fp, sports...) {
		fp++
	}
	for inFilter(fresh, 53) {
		fresh++
	}
	o, ref := NewOnline(cfg), NewReference(cfg)
	for _, v := range sports {
		p := nmPkt(0, 100, v, 53)
		if got, want := o.Observe(p), ref.Observe(p); got != want {
			t.Fatalf("sport %d: assignment %+v, reference %+v", v, got, want)
		}
	}
	before := o.Snapshot()[0].NominalCardinality[1]
	p := nmPkt(0, 100, fp, fresh)
	got, want := o.Observe(p), ref.Observe(p)
	if got != want || got.Distance != 1 {
		t.Fatalf("assignment %+v, reference %+v, want distance 1 from both: sport %d is a false positive", got, want, fp)
	}
	a, b := o.Snapshot()[0].NominalCardinality, ref.Snapshot()[0].NominalCardinality
	if a[1] != b[1] || a[2] != b[2] || a[1] != before || a[2] != 2 {
		t.Fatalf("cardinalities %v, reference %v, want %d sports (the false positive adds none) and 2 dports", a, b, before)
	}
}

// TestNearMissEveryPlane seeds k clusters and asks for each of them by a
// packet one port away, so the answer comes from every byte of cells up
// to 32 bits wide. The Bloom rows are the
// forwarded baseline: their assignments are held to the Reference's and
// there is no table to ask.
func TestNearMissEveryPlane(t *testing.T) {
	feats := packet.FeatureSet{packet.FDstIPByte3, packet.FSrcPort, packet.FDstPort}
	for _, k := range []int{1, 4, 8, 9, 17} {
		for _, bloom := range []bool{false, true} {
			cfg := DefaultConfig(k, feats)
			cfg.UseBloom = bloom
			t.Run(fmt.Sprintf("k=%d/%s", k, comboName(cfg)), func(t *testing.T) {
				o, ref := NewOnline(cfg), NewReference(cfg)
				for c := 0; c < k; c++ {
					p := nmPkt(byte(10*c), 100, uint16(1000+c), 53)
					if got, want := o.Observe(p), ref.Observe(p); got != want || !got.Created {
						t.Fatalf("seeding %d: assignment %+v, reference %+v", c, got, want)
					}
				}
				vals := make([]uint32, len(feats))
				for c := k - 1; c >= 0; c-- {
					// An unseen dport: only cluster c misses once. Then an
					// unseen sport with the shared dport: every cluster
					// misses once and only c's range holds the byte.
					for j, p := range []*packet.Packet{
						nmPkt(byte(10*c), 100, uint16(1000+c), uint16(9000+c)),
						nmPkt(byte(10*c), 100, uint16(7000+c), 53),
					} {
						if cfg.Deployed() {
							feats.Extract(p, vals)
							ci, d, near := o.closest(vals)
							if want := (answer{c, 1, 1 - j}); (answer{ci, d, near}) != want {
								t.Fatalf("cluster %d probe %d: closest = %+v, want %+v", c, j, answer{ci, d, near}, want)
							}
							if si, sd := o.scanManhattanRaw(vals); si != ci || sd != d {
								t.Fatalf("cluster %d probe %d: scan says (%d, %v)", c, j, si, sd)
							}
						}
						if got, want := o.Observe(p), ref.Observe(p); got != want || got.Cluster != c || got.Distance != 1 {
							t.Fatalf("cluster %d probe %d: assignment %+v, reference %+v", c, j, got, want)
						}
					}
				}
				// Two candidates at once, in the same and in different
				// bytes of a cell: k clusters on one address byte, each
				// with its own pair of ports, and a probe carrying the
				// sport of one and the dport of the other. The lower index
				// wins whichever byte it is in, as it does in the scan.
				if !cfg.Deployed() {
					return
				}
				o = NewOnline(cfg)
				for c := 0; c < k; c++ {
					if a := o.Observe(nmPkt(10, 100, uint16(1000+c), uint16(2000+c))); !a.Created {
						t.Fatalf("seeding %d on one byte: %+v", c, a)
					}
				}
				for _, pair := range [][2]int{{0, k - 1}, {7, 8}, {8, 16}, {15, 16}} {
					lo, hi := pair[0], pair[1]
					if lo >= hi || hi >= k {
						continue
					}
					for j, p := range []*packet.Packet{
						nmPkt(10, 100, uint16(1000+hi), uint16(2000+lo)), // lo misses the sport
						nmPkt(10, 100, uint16(1000+lo), uint16(2000+hi)), // lo misses the dport
					} {
						feats.Extract(p, vals)
						ci, d, near := o.closest(vals)
						if want := (answer{lo, 1, j}); (answer{ci, d, near}) != want {
							t.Fatalf("pair %v probe %d: closest = %+v, want %+v", pair, j, answer{ci, d, near}, want)
						}
						if si, sd := o.scanManhattanRaw(vals); si != ci || sd != d {
							t.Fatalf("pair %v probe %d: scan says (%d, %v)", pair, j, si, sd)
						}
					}
				}
			})
		}
	}
}

// answerShares counts how closest answered a trace through the deployed
// clusterer, reseeded every second of trace time as the benchmark's
// controller does.
type answerShares struct{ covered, near, scanned int }

func traceAnswerShares(src traffic.Source) (s answerShares) {
	o := NewOnline(hardwareShape())
	feats := o.cfg.Features
	vals := make([]uint32, len(feats))
	reseedAt := eventsim.Second
	for tp, ok := src.Next(); ok; tp, ok = src.Next() {
		for ; tp.At >= reseedAt; reseedAt += eventsim.Second {
			o.Reseed()
		}
		feats.Extract(tp.Pkt, vals)
		switch _, d, near := o.closest(vals); {
		case d == 0:
			s.covered++
		case near >= 0:
			s.near++
		default:
			s.scanned++
		}
		o.ObserveFeatures(vals, uint64(tp.Pkt.Size()), false)
	}
	return s
}

// TestAnswerSharesOnBenchmarkTraces pins, as counts, which packets of the
// repository benchmark's three traces (same generators, same parameters,
// seed 1) the table answers and which still reach the scan, and holds the
// scan's share to the bound the near-miss answer was added for.
func TestAnswerSharesOnBenchmarkTraces(t *testing.T) {
	cic, _ := traffic.CICDDoSDay(5e6, 15e6, 2*eventsim.Second, eventsim.Second, 1)
	for _, tc := range []struct {
		name    string
		src     traffic.Source
		want    answerShares
		maxScan float64
	}{
		{"pulse_wave", traffic.PulseWave(1.5e6, 4.5e6, 5*eventsim.Second, true), answerShares{35632, 71303, 220}, 0.01},
		{"benign_diverse", traffic.NewBackground(traffic.BackgroundConfig{Rate: 80e6, End: 10 * eventsim.Second, Seed: 1}), answerShares{80311, 12262, 616}, 0.01},
		{"cicddos_mix", cic, answerShares{70363, 56554, 5524}, 0.05},
	} {
		got := traceAnswerShares(tc.src)
		if got != tc.want {
			t.Errorf("%s: answers %+v, want %+v", tc.name, got, tc.want)
		}
		total := float64(got.covered + got.near + got.scanned)
		if share := float64(got.scanned) / total; share > tc.maxScan || math.IsNaN(share) {
			t.Errorf("%s: %.2f %% of %v packets reach the scan, want at most %.0f %%", tc.name, 100*share, total, 100*tc.maxScan)
		}
	}
}
