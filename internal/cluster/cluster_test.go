package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"accturbo/internal/packet"
)

// quickConfig fixes the generator of a quick.Check, so a failing input
// is the same on every run.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// twoFeatures clusters on TTL and length: both ordinal, small spaces,
// easy to reason about.
func twoFeatures() packet.FeatureSet {
	return packet.FeatureSet{packet.FTTL, packet.FLength}
}

func mkPkt(ttl uint8, length uint16, label packet.Label) *packet.Packet {
	return &packet.Packet{
		SrcIP:    packet.V4(10, 0, 0, 1),
		DstIP:    packet.V4(10, 0, 0, 2),
		TTL:      ttl,
		Length:   length,
		Protocol: packet.ProtoUDP,
		Label:    label,
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(4, twoFeatures())
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{MaxClusters: 0, Features: twoFeatures()},
		{MaxClusters: 2},
		{MaxClusters: 2, Features: twoFeatures(), Distance: Distance(9)},
		{MaxClusters: 2, Features: twoFeatures(), Search: Search(9)},
		{MaxClusters: 2, Features: twoFeatures(), LearningRate: 2},
		{MaxClusters: 2, Features: packet.FeatureSet{packet.FSrcPort}, Search: Exhaustive, UseBloom: true},
		// More slices than the lead ordinal (ip.dst[2], 256 values) has values.
		{MaxClusters: 257, Features: packet.HardwareFeatures(), SliceInit: true},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestEnumStrings(t *testing.T) {
	if Manhattan.String() != "manhattan" || Anime.String() != "anime" || Euclidean.String() != "euclidean" {
		t.Error("distance names wrong")
	}
	if Fast.String() != "fast" || Exhaustive.String() != "exhaustive" {
		t.Error("search names wrong")
	}
	if Distance(7).String() == "" || Search(7).String() == "" {
		t.Error("unknown values need placeholder names")
	}
}

func TestSeedPhaseCreatesClusters(t *testing.T) {
	o := NewOnline(DefaultConfig(3, twoFeatures()))
	a1 := o.Observe(mkPkt(10, 100, packet.Benign))
	a2 := o.Observe(mkPkt(200, 1400, packet.Benign))
	a3 := o.Observe(mkPkt(100, 700, packet.Benign))
	if !a1.Created || !a2.Created || !a3.Created {
		t.Fatalf("first distinct packets must seed clusters: %+v %+v %+v", a1, a2, a3)
	}
	if o.NumClusters() != 3 {
		t.Fatalf("NumClusters = %d", o.NumClusters())
	}
	// A duplicate during seeding joins its cluster instead of seeding.
	o2 := NewOnline(DefaultConfig(3, twoFeatures()))
	o2.Observe(mkPkt(10, 100, packet.Benign))
	dup := o2.Observe(mkPkt(10, 100, packet.Benign))
	if dup.Created || dup.Cluster != 0 || dup.Distance != 0 {
		t.Fatalf("duplicate seeded a new cluster: %+v", dup)
	}
}

func TestFastAssignmentToNearest(t *testing.T) {
	o := NewOnline(DefaultConfig(2, twoFeatures()))
	o.Observe(mkPkt(10, 100, packet.Benign))   // cluster 0: (10, 100)
	o.Observe(mkPkt(200, 1400, packet.Benign)) // cluster 1: (200, 1400)
	a := o.Observe(mkPkt(12, 110, packet.Benign))
	if a.Cluster != 0 {
		t.Fatalf("packet near cluster 0 assigned to %d", a.Cluster)
	}
	if a.Distance != 2+10 {
		t.Fatalf("Manhattan distance = %v, want 12", a.Distance)
	}
	b := o.Observe(mkPkt(190, 1300, packet.Benign))
	if b.Cluster != 1 {
		t.Fatalf("packet near cluster 1 assigned to %d", b.Cluster)
	}
}

func TestRangesAbsorbPackets(t *testing.T) {
	o := NewOnline(DefaultConfig(1, twoFeatures()))
	o.Observe(mkPkt(50, 500, packet.Benign))
	o.Observe(mkPkt(60, 400, packet.Benign))
	o.Observe(mkPkt(40, 600, packet.Benign))
	info := o.Snapshot()[0]
	if info.Ranges[0] != (Range{40, 60}) {
		t.Fatalf("TTL range = %+v", info.Ranges[0])
	}
	if info.Ranges[1] != (Range{400, 600}) {
		t.Fatalf("length range = %+v", info.Ranges[1])
	}
	// Once absorbed, the same values are at distance 0.
	a := o.Observe(mkPkt(45, 450, packet.Benign))
	if a.Distance != 0 {
		t.Fatalf("covered packet had distance %v", a.Distance)
	}
}

func TestNominalFeatureSets(t *testing.T) {
	cfg := DefaultConfig(1, packet.FeatureSet{packet.FDstPort})
	o := NewOnline(cfg)
	p1 := mkPkt(64, 100, packet.Benign)
	p1.DstPort = 53
	p2 := mkPkt(64, 100, packet.Benign)
	p2.DstPort = 123
	o.Observe(p1)
	a := o.Observe(p2)
	if a.Distance != 1 {
		t.Fatalf("unseen nominal value should cost 1, got %v", a.Distance)
	}
	if card := o.Snapshot()[0].NominalCardinality[0]; card != 2 {
		t.Fatalf("cardinality = %d", card)
	}
	// Now both ports are admitted.
	if d := o.Observe(p1.Clone()).Distance; d != 0 {
		t.Fatalf("admitted value cost %v", d)
	}
}

func TestBloomNominalSets(t *testing.T) {
	cfg := DefaultConfig(1, packet.FeatureSet{packet.FDstPort})
	cfg.UseBloom = true
	o := NewOnline(cfg)
	p1 := mkPkt(64, 100, packet.Benign)
	p1.DstPort = 53
	o.Observe(p1)
	p2 := p1.Clone()
	p2.DstPort = 9999
	if d := o.Observe(p2).Distance; d != 1 {
		t.Fatalf("bloom miss should cost 1, got %v", d)
	}
	if d := o.Observe(p2.Clone()).Distance; d != 0 {
		t.Fatalf("bloom hit should cost 0, got %v", d)
	}
}

func TestStatsAndReset(t *testing.T) {
	o := NewOnline(DefaultConfig(1, twoFeatures()))
	o.Observe(mkPkt(10, 100, packet.Benign))
	o.Observe(mkPkt(10, 100, packet.Malicious))
	o.Observe(mkPkt(10, 100, packet.Malicious))
	info := o.Snapshot()[0]
	if info.Packets != 3 || info.Bytes != 300 {
		t.Fatalf("stats: %+v", info)
	}
	if info.Benign != 1 || info.Malicious != 2 {
		t.Fatalf("label counts: %+v", info)
	}
	o.ResetStats()
	info = o.Snapshot()[0]
	if info.Packets != 0 || info.Bytes != 0 || info.Benign != 0 || info.Malicious != 0 {
		t.Fatalf("reset failed: %+v", info)
	}
	if info.TotalPackets != 3 {
		t.Fatalf("TotalPackets should survive reset: %+v", info)
	}
	o.Reseed()
	if o.NumClusters() != 0 {
		t.Fatal("reseed did not clear clusters")
	}
}

func TestClusterSizeTracksSimilarity(t *testing.T) {
	o := NewOnline(DefaultConfig(2, twoFeatures()))
	// Cluster 0: very tight. Cluster 1: very broad.
	o.Observe(mkPkt(10, 100, packet.Benign))
	o.Observe(mkPkt(250, 1500, packet.Benign))
	for i := 0; i < 50; i++ {
		o.Observe(mkPkt(10, 100, packet.Malicious))                      // tight
		o.Observe(mkPkt(uint8(200+i), uint16(1000+10*i), packet.Benign)) // broad
	}
	infos := o.Snapshot()
	if infos[0].Size >= infos[1].Size {
		t.Fatalf("tight cluster size %v !< broad cluster size %v", infos[0].Size, infos[1].Size)
	}
}

func TestExhaustiveMergesClusters(t *testing.T) {
	cfg := DefaultConfig(2, twoFeatures())
	cfg.Search = Exhaustive
	o := NewOnline(cfg)
	// Two adjacent clusters and one far-away packet: exhaustive should
	// merge the neighbors and give the outlier its own cluster.
	o.Observe(mkPkt(10, 100, packet.Benign))
	o.Observe(mkPkt(12, 110, packet.Benign))
	a := o.Observe(mkPkt(250, 1500, packet.Benign))
	if !a.Created {
		t.Fatalf("outlier should trigger merge + new cluster: %+v", a)
	}
	infos := o.Snapshot()
	// One cluster covers [10,12]x[100,110]; the other is the point.
	var broad, point int
	if infos[0].Size >= infos[1].Size {
		broad, point = 0, 1
	} else {
		broad, point = 1, 0
	}
	if !infos[broad].Ranges[0].Contains(10) || !infos[broad].Ranges[0].Contains(12) {
		t.Fatalf("merged cluster ranges wrong: %+v", infos[broad])
	}
	if infos[point].Ranges[0] != (Range{250, 250}) {
		t.Fatalf("outlier cluster wrong: %+v", infos[point])
	}
}

func TestExhaustiveFallsBackToFastWhenMergeCostly(t *testing.T) {
	cfg := DefaultConfig(2, twoFeatures())
	cfg.Search = Exhaustive
	o := NewOnline(cfg)
	o.Observe(mkPkt(10, 100, packet.Benign))
	o.Observe(mkPkt(250, 1500, packet.Benign))
	// Packet adjacent to cluster 0: merging clusters (huge cost) must
	// lose to absorbing the packet (tiny cost).
	a := o.Observe(mkPkt(11, 105, packet.Benign))
	if a.Created || a.Cluster != 0 {
		t.Fatalf("expected plain absorption: %+v", a)
	}
}

func TestEuclideanCentersMove(t *testing.T) {
	cfg := Config{
		MaxClusters:  1,
		Features:     twoFeatures(),
		Distance:     Euclidean,
		LearningRate: 0.5,
	}
	o := NewOnline(cfg)
	o.Observe(mkPkt(10, 100, packet.Benign))
	o.Observe(mkPkt(20, 200, packet.Benign))
	// Center moved halfway: (15, 150).
	a := o.Observe(mkPkt(15, 150, packet.Benign))
	if a.Distance != 0 {
		t.Fatalf("distance to moved center = %v, want 0", a.Distance)
	}
}

func TestEuclideanDistanceIsSquared(t *testing.T) {
	cfg := Config{MaxClusters: 2, Features: twoFeatures(), Distance: Euclidean, LearningRate: 0.3}
	o := NewOnline(cfg)
	o.Observe(mkPkt(0, 0, packet.Benign))
	o.Observe(mkPkt(100, 0, packet.Benign))
	a := o.Observe(mkPkt(10, 0, packet.Benign))
	if a.Cluster != 0 {
		t.Fatalf("assigned to %d", a.Cluster)
	}
}

func TestAnimeDistancePrefersTightClusters(t *testing.T) {
	cfg := DefaultConfig(2, twoFeatures())
	cfg.Distance = Anime
	o := NewOnline(cfg)
	o.Observe(mkPkt(10, 100, packet.Benign))
	o.Observe(mkPkt(20, 1400, packet.Benign))
	// Absorbing (15, 120) into cluster 0 grows its product cost less
	// than absorbing into cluster 1.
	a := o.Observe(mkPkt(15, 120, packet.Benign))
	if a.Cluster != 0 {
		t.Fatalf("anime assigned to %d", a.Cluster)
	}
	if a.Distance <= 0 {
		t.Fatalf("anime distance = %v, want positive", a.Distance)
	}
}

func TestSeedCentersRequiresEuclidean(t *testing.T) {
	o := NewOnline(DefaultConfig(2, twoFeatures()))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.SeedCenters([][]float64{{1, 2}})
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	km := NewKMeans(2, twoFeatures(), 1)
	var pkts []*packet.Packet
	for i := 0; i < 50; i++ {
		pkts = append(pkts, mkPkt(uint8(10+i%3), uint16(100+i%5), packet.Benign))
		pkts = append(pkts, mkPkt(uint8(200+i%3), uint16(1300+i%5), packet.Malicious))
	}
	_, assign := km.Fit(pkts)
	// All even indexes (low group) must share a cluster, odd likewise.
	for i := 2; i < len(pkts); i += 2 {
		if assign[i] != assign[0] {
			t.Fatalf("low group split: assign[%d]=%d assign[0]=%d", i, assign[i], assign[0])
		}
	}
	for i := 3; i < len(pkts); i += 2 {
		if assign[i] != assign[1] {
			t.Fatalf("high group split")
		}
	}
	if assign[0] == assign[1] {
		t.Fatal("groups merged")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	km := NewKMeans(3, twoFeatures(), 1)
	if c, a := km.Fit(nil); c != nil || a != nil {
		t.Fatal("empty batch should return nil")
	}
	// Fewer points than k.
	centers, assign := km.Fit([]*packet.Packet{mkPkt(1, 2, packet.Benign)})
	if len(centers) != 1 || assign[0] != 0 {
		t.Fatalf("k>n: centers=%d assign=%v", len(centers), assign)
	}
	// All-identical points must not loop or panic.
	same := []*packet.Packet{mkPkt(5, 5, packet.Benign), mkPkt(5, 5, packet.Benign), mkPkt(5, 5, packet.Benign)}
	km2 := NewKMeans(2, twoFeatures(), 1)
	centers, _ = km2.Fit(same)
	if len(centers) != 2 {
		t.Fatalf("identical points: %d centers", len(centers))
	}
}

func TestHybridRefits(t *testing.T) {
	h := NewHybrid(2, twoFeatures(), 10, 1)
	for i := 0; i < 25; i++ {
		h.Observe(mkPkt(uint8(10+i%2), 100, packet.Benign))
		h.Observe(mkPkt(uint8(200+i%2), 1400, packet.Malicious))
	}
	infos := h.Snapshot()
	if len(infos) != 2 {
		t.Fatalf("%d clusters after refit", len(infos))
	}
	// After refits, the two centers should separate the two groups:
	// assigning group representatives must land in different clusters.
	a := h.Observe(mkPkt(10, 100, packet.Benign))
	b := h.Observe(mkPkt(200, 1400, packet.Malicious))
	if a.Cluster == b.Cluster {
		t.Fatal("hybrid clusters did not separate groups")
	}
	h.ResetStats()
}

func TestEvalMetrics(t *testing.T) {
	e := NewEval()
	// Cluster 0: 8 benign, 2 malicious. Cluster 1: 1 benign, 9 malicious.
	for i := 0; i < 8; i++ {
		e.Observe(0, packet.Benign)
	}
	for i := 0; i < 2; i++ {
		e.Observe(0, packet.Malicious)
	}
	e.Observe(1, packet.Benign)
	for i := 0; i < 9; i++ {
		e.Observe(1, packet.Malicious)
	}
	if got, want := e.Purity(), (8.0+9.0)/20.0; got != want {
		t.Fatalf("purity = %v, want %v", got, want)
	}
	if got, want := e.RecallBenign(), 8.0/9.0; got != want {
		t.Fatalf("recall benign = %v, want %v", got, want)
	}
	if got, want := e.RecallMalicious(), 9.0/11.0; got != want {
		t.Fatalf("recall malicious = %v, want %v", got, want)
	}
	e = NewEval()
	if e.Total() != 0 {
		t.Fatal("fresh accumulator not empty")
	}
	if e.Purity() != 0 {
		t.Fatal("empty purity should be 0")
	}
	if e.RecallBenign() != 1 || e.RecallMalicious() != 1 {
		t.Fatal("empty recalls should be 1")
	}
}

// --- property-based tests ---

func randPkt(r *rand.Rand) *packet.Packet {
	return mkPkt(uint8(r.Intn(256)), uint16(r.Intn(1500)), packet.Label(r.Intn(2)))
}

// Invariant: after Observe, the assigned cluster covers the packet
// (range representation), so re-observing the same packet immediately
// has distance 0 to that cluster.
func TestQuickRangesCoverAssignedPackets(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, dist := range []Distance{Manhattan, Anime} {
			cfg := DefaultConfig(1+r.Intn(6), twoFeatures())
			cfg.Distance = dist
			o := NewOnline(cfg)
			for i := 0; i < 200; i++ {
				p := randPkt(r)
				a := o.Observe(p)
				info := o.Snapshot()[a.Cluster]
				if !info.Ranges[0].Contains(uint32(p.TTL)) || !info.Ranges[1].Contains(uint32(p.Length)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(30)); err != nil {
		t.Fatal(err)
	}
}

// Invariant: cluster count never exceeds MaxClusters, distances are
// never negative (Manhattan/Euclidean), and per-window packet counters
// sum to the number of observations.
func TestQuickBoundedClustersAndCounters(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kRaw)%8 + 1
		for _, s := range []Search{Fast, Exhaustive} {
			cfg := DefaultConfig(k, twoFeatures())
			cfg.Search = s
			o := NewOnline(cfg)
			const n = 300
			for i := 0; i < n; i++ {
				a := o.Observe(randPkt(r))
				if a.Distance < 0 {
					return false
				}
				if o.NumClusters() > k {
					return false
				}
			}
			var total uint64
			for _, info := range o.Snapshot() {
				total += info.Packets
			}
			if total != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(30)); err != nil {
		t.Fatal(err)
	}
}

// Invariant: purity and recalls always land in [0, 1].
func TestQuickMetricBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEval()
		for i := 0; i < 200; i++ {
			e.Observe(r.Intn(10), packet.Label(r.Intn(2)))
		}
		p, rb, rm := e.Purity(), e.RecallBenign(), e.RecallMalicious()
		return p >= 0 && p <= 1 && rb >= 0 && rb <= 1 && rm >= 0 && rm <= 1
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// Invariant: purity never decreases when each packet gets its own
// cluster (the degenerate perfect clustering).
func TestQuickPerfectClusteringHasPurityOne(t *testing.T) {
	f := func(labels []bool) bool {
		if len(labels) == 0 {
			return true
		}
		e := NewEval()
		for i, m := range labels {
			lbl := packet.Benign
			if m {
				lbl = packet.Malicious
			}
			e.Observe(i, lbl)
		}
		return e.Purity() == 1
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizeBalancesFeatureScales(t *testing.T) {
	// Two clusters: one near in the 16-bit dimension but far in the
	// 8-bit one, the other vice versa. Raw distances weigh the 16-bit
	// gap 256x; normalized distances weigh them equally.
	feats := packet.FeatureSet{packet.FTTL, packet.FLength} // 8-bit, 16-bit
	mk := func(norm bool) int {
		cfg := DefaultConfig(2, feats)
		cfg.Normalize = norm
		o := NewOnline(cfg)
		o.Observe(mkPkt(0, 0, packet.Benign))       // cluster 0 at (0, 0)
		o.Observe(mkPkt(255, 65000, packet.Benign)) // cluster 1 at (255, 65000)
		// Probe at (0, 32500): raw -> closer to cluster 0 in len only?
		// len distance to c0 = 32500, to c1 = 32500; ttl distance to
		// c0 = 0, c1 = 255. Both metrics agree here, so probe at
		// (255, 2000): raw len dominates (2000 < 63000 -> c0);
		// normalized: c0 = 1.0(ttl) + 0.03 = 1.03, c1 = 0 + 0.96 -> c1.
		return o.Observe(mkPkt(255, 2000, packet.Benign)).Cluster
	}
	if got := mk(false); got != 0 {
		t.Fatalf("raw distances: assigned to %d, want 0 (length dominates)", got)
	}
	if got := mk(true); got != 1 {
		t.Fatalf("normalized distances: assigned to %d, want 1 (TTL counts equally)", got)
	}
}

func TestSliceInitTilesLeadingFeature(t *testing.T) {
	cfg := DefaultConfig(4, packet.FeatureSet{packet.FTTL, packet.FLength})
	cfg.SliceInit = true
	o := NewOnline(cfg)
	if o.NumClusters() != 4 {
		t.Fatalf("slice init created %d clusters", o.NumClusters())
	}
	infos := o.Snapshot()
	// The leading ordinal feature (TTL, 8-bit) is tiled into four
	// 64-wide slices; the second feature starts at full range.
	for i, info := range infos {
		want := Range{Min: uint32(64 * i), Max: uint32(64*i + 63)}
		if info.Ranges[0] != want {
			t.Fatalf("slice %d covers %+v, want %+v", i, info.Ranges[0], want)
		}
		if info.Ranges[1] != (Range{Min: 0, Max: 65535}) {
			t.Fatalf("slice %d second feature %+v, want full range", i, info.Ranges[1])
		}
		if info.Packets != 0 || info.TotalPackets != 0 {
			t.Fatalf("slice %d has traffic before any packet", i)
		}
	}
	// A packet lands in its TTL slice deterministically.
	a := o.Observe(mkPkt(70, 100, packet.Benign))
	if a.Cluster != 1 || a.Created {
		t.Fatalf("ttl=70 assigned to %+v, want slice 1", a)
	}
	b := o.Observe(mkPkt(250, 1400, packet.Benign))
	if b.Cluster != 3 {
		t.Fatalf("ttl=250 assigned to %d, want slice 3", b.Cluster)
	}
}

func TestSliceInitNominalSetsStartEmpty(t *testing.T) {
	cfg := DefaultConfig(2, packet.FeatureSet{packet.FTTL, packet.FDstPort})
	cfg.SliceInit = true
	o := NewOnline(cfg)
	for _, info := range o.Snapshot() {
		if info.NominalCardinality[1] != 0 {
			t.Fatalf("nominal set not empty: %+v", info)
		}
	}
	p := mkPkt(10, 100, packet.Benign)
	p.DstPort = 443
	a := o.Observe(p)
	if a.Distance != 1 {
		t.Fatalf("first nominal value should cost exactly 1, got %v", a.Distance)
	}
	if o.Snapshot()[a.Cluster].NominalCardinality[1] != 1 {
		t.Fatal("nominal value not admitted")
	}
}

func TestSliceInitReseedRestoresTiling(t *testing.T) {
	cfg := DefaultConfig(4, packet.FeatureSet{packet.FTTL})
	cfg.SliceInit = true
	o := NewOnline(cfg)
	// Distort the slices.
	o.Observe(mkPkt(0, 100, packet.Malicious))
	o.Observe(mkPkt(255, 100, packet.Malicious))
	o.Reseed()
	infos := o.Snapshot()
	if len(infos) != 4 {
		t.Fatalf("%d clusters after reseed", len(infos))
	}
	for i, info := range infos {
		if info.Ranges[0] != (Range{Min: uint32(64 * i), Max: uint32(64*i + 63)}) {
			t.Fatalf("reseed did not restore slice %d: %+v", i, info.Ranges[0])
		}
		if info.Malicious != 0 {
			t.Fatal("stats survived reseed")
		}
	}
}

func TestSliceInitBloomMode(t *testing.T) {
	cfg := DefaultConfig(2, packet.FeatureSet{packet.FTTL, packet.FDstPort})
	cfg.SliceInit = true
	cfg.UseBloom = true
	o := NewOnline(cfg)
	p := mkPkt(10, 100, packet.Benign)
	p.DstPort = 443
	if a := o.Observe(p); a.Distance != 1 {
		t.Fatalf("bloom slice should start empty: distance %v", a.Distance)
	}
	if d := o.Observe(p.Clone()).Distance; d != 0 {
		t.Fatalf("admitted bloom value cost %v", d)
	}
}

func TestSliceInitAllNominalFeatures(t *testing.T) {
	// No ordinal feature to slice: clusters still pre-create without
	// panicking and behave as empty-set clusters.
	cfg := DefaultConfig(3, packet.FeatureSet{packet.FSrcPort, packet.FDstPort})
	cfg.SliceInit = true
	o := NewOnline(cfg)
	if o.NumClusters() != 3 {
		t.Fatalf("%d clusters", o.NumClusters())
	}
	p := mkPkt(10, 100, packet.Benign)
	p.SrcPort, p.DstPort = 1, 2
	a := o.Observe(p)
	if a.Cluster < 0 || a.Cluster >= 3 {
		t.Fatalf("assignment out of range: %+v", a)
	}
}

func TestRangeWidth(t *testing.T) {
	if (Range{Min: 3, Max: 10}).Width() != 7 {
		t.Fatal("width wrong")
	}
}

func TestOnlineConfigAccessor(t *testing.T) {
	cfg := DefaultConfig(3, twoFeatures())
	o := NewOnline(cfg)
	if got := o.Config(); got.MaxClusters != 3 || len(got.Features) != 2 {
		t.Fatalf("Config() = %+v", got)
	}
}

func TestAnimeExhaustiveMergesProductCost(t *testing.T) {
	cfg := DefaultConfig(2, twoFeatures())
	cfg.Distance = Anime
	cfg.Search = Exhaustive
	o := NewOnline(cfg)
	// Two near-identical clusters plus a far outlier: the product cost
	// of merging the neighbors is tiny, so the outlier gets its slot.
	o.Observe(mkPkt(10, 100, packet.Benign))
	o.Observe(mkPkt(11, 101, packet.Benign))
	a := o.Observe(mkPkt(250, 1500, packet.Benign))
	if !a.Created {
		t.Fatalf("anime exhaustive should merge neighbors for the outlier: %+v", a)
	}
	// And observe more packets: distances must stay finite/sane.
	for i := 0; i < 50; i++ {
		got := o.Observe(mkPkt(uint8(i*5), uint16(i*30), packet.Benign))
		if got.Cluster < 0 || got.Cluster > 1 {
			t.Fatalf("assignment out of range: %+v", got)
		}
	}
}

func TestEuclideanExhaustiveWardMerge(t *testing.T) {
	cfg := DefaultConfig(2, twoFeatures())
	cfg.Distance = Euclidean
	cfg.Search = Exhaustive
	cfg.LearningRate = 0.5
	o := NewOnline(cfg)
	// Two coincident centers merge cheaply (Ward cost ~ 0) when an
	// outlier arrives.
	o.Observe(mkPkt(10, 100, packet.Benign))
	o.Observe(mkPkt(12, 102, packet.Benign))
	a := o.Observe(mkPkt(250, 1500, packet.Benign))
	if !a.Created {
		t.Fatalf("euclidean exhaustive should free a slot: %+v", a)
	}
}

func TestExhaustiveMergeWithNominalSets(t *testing.T) {
	feats := packet.FeatureSet{packet.FTTL, packet.FDstPort}
	cfg := DefaultConfig(2, feats)
	cfg.Search = Exhaustive
	o := NewOnline(cfg)
	p1 := mkPkt(10, 100, packet.Benign)
	p1.DstPort = 80
	p2 := mkPkt(11, 100, packet.Benign)
	p2.DstPort = 443
	o.Observe(p1)
	o.Observe(p2)
	// Outlier forces the two port sets to union.
	p3 := mkPkt(250, 100, packet.Benign)
	p3.DstPort = 9999
	a := o.Observe(p3)
	if !a.Created {
		t.Fatalf("merge not triggered: %+v", a)
	}
	// One cluster now admits both 80 and 443.
	found := false
	for _, info := range o.Snapshot() {
		if info.NominalCardinality[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("nominal sets did not union on merge")
	}
}

func TestKMeansValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewKMeans(0, twoFeatures(), 1) },
		func() { NewKMeans(2, nil, 1) },
		func() { NewHybrid(2, twoFeatures(), 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
