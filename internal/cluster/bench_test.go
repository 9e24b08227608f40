package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"accturbo/internal/packet"
)

// benchCombos enumerates every valid distance x search x set-mode
// configuration (Exhaustive+Bloom is rejected by Config.Validate).
func benchCombos() []Config {
	var out []Config
	for _, d := range []Distance{Manhattan, Anime, Euclidean} {
		for _, s := range []Search{Fast, Exhaustive} {
			for _, bloom := range []bool{false, true} {
				if s == Exhaustive && bloom {
					continue
				}
				cfg := DefaultConfig(10, packet.DefaultSimulationFeatures())
				cfg.Distance = d
				cfg.Search = s
				cfg.UseBloom = bloom
				out = append(out, cfg)
			}
		}
	}
	return out
}

func comboName(cfg Config) string {
	mode := "exact"
	if cfg.UseBloom {
		mode = "bloom"
	}
	return fmt.Sprintf("%v/%v/%s", cfg.Distance, cfg.Search, mode)
}

// hardwareShape is the clusterer accturbo-defend deploys: the §7.1
// hardware features over four slice-initialised clusters.
func hardwareShape() Config {
	cfg := DefaultConfig(4, packet.HardwareFeatures())
	cfg.SliceInit = true
	return cfg
}

// benchTrace builds a packet working set with adversarial feature
// diversity (random IPs and ports), matching what a pulse-wave attack
// feeds the clusterer.
func benchTrace(n int, seed int64) []*packet.Packet {
	r := rand.New(rand.NewSource(seed))
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		p := randPkt(r)
		p.SrcIP = packet.V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		p.DstIP = packet.V4(byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)))
		p.SrcPort = uint16(r.Intn(65536))
		p.DstPort = uint16(r.Intn(65536))
		pkts[i] = p
	}
	return pkts
}

// nearMissTrace is a window of the traffic a pulse is made of: packets to
// one /16 and one destination port, each from a source port no packet
// before it used. After a tile's first packet, every packet is one
// unseen nominal value away from a cluster whose ranges contain it.
func nearMissTrace(n int, seed int64) []*packet.Packet {
	r := rand.New(rand.NewSource(seed))
	pkts := make([]*packet.Packet, n)
	for i, sport := range r.Perm(65536)[:n] {
		pkts[i] = &packet.Packet{
			SrcIP:    packet.V4(10, 0, byte(r.Intn(256)), byte(r.Intn(256))),
			DstIP:    packet.V4(198, 18, byte(r.Intn(256)), byte(r.Intn(256))),
			Protocol: packet.ProtoUDP, TTL: 64, Length: 100,
			SrcPort: uint16(sport), DstPort: 53,
		}
	}
	return pkts
}

// simulatorShape is the clusterer the simulated bottleneck runs (the
// repository benchmark's sim_pulse, the §2 comparison): ten clusters over
// three destination bytes, no nominal feature.
func simulatorShape(sliceInit bool) Config {
	cfg := DefaultConfig(10, packet.FeatureSet{packet.FDstIPByte1, packet.FDstIPByte2, packet.FDstIPByte3})
	cfg.SliceInit = sliceInit
	return cfg
}

// BenchmarkObserve measures the per-packet path of the deployed
// configuration; what the baselines (Bloom sets among them) cost is
// BenchmarkObserveReference's to say. The warmup pass pushes every
// cluster and nominal set into steady state before the timer starts, so
// allocs/op reflects the hot path, not seeding.
//
// The covered and uncovered rows name the two cases of the deployed
// clusterer at the two shapes the repository benchmark runs. Covered: every
// packet is at distance zero from some cluster (the warmup admitted its
// ports; slice tiles contain its address), at an index that varies from
// packet to packet. Uncovered: the clusterer is reseeded every `reseed`
// packets, as the controller does between pulses, so packets keep
// arriving from ports and addresses no cluster has met — the scan, the
// absorb and the table's upkeep all run. Near miss: the same reseeded
// window, but of nearMissTrace, so all but a tile's first packet are
// answered by the table at distance one and admitted by one cell write.
func BenchmarkObserve(b *testing.B) {
	for _, r := range observeRows() {
		b.Run(r.name, func(b *testing.B) {
			o := r.warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step(o, i)
			}
		})
	}
}

// observeRow is one row of BenchmarkObserve, which
// TestObserveFastPathZeroAlloc runs too.
type observeRow struct {
	name   string
	cfg    Config
	reseed int // packets between reseeds; 0 = never
	pkts   []*packet.Packet
}

func observeRows() []observeRow {
	pkts := benchTrace(1024, 1)
	var rows []observeRow
	for _, cfg := range benchCombos() {
		if cfg.Deployed() {
			rows = append(rows, observeRow{name: comboName(cfg), cfg: cfg, pkts: pkts})
		}
	}
	return append(rows,
		observeRow{name: "manhattan/fast/exact/hw/covered", cfg: hardwareShape(), pkts: pkts},
		observeRow{name: "manhattan/fast/exact/hw/uncovered", cfg: hardwareShape(), reseed: len(pkts), pkts: pkts},
		observeRow{name: "manhattan/fast/exact/hw/nearmiss", cfg: hardwareShape(), reseed: len(pkts), pkts: nearMissTrace(len(pkts), 1)},
		observeRow{name: "manhattan/fast/exact/sim/covered", cfg: simulatorShape(true), pkts: pkts},
		observeRow{name: "manhattan/fast/exact/sim/uncovered", cfg: simulatorShape(false), reseed: 32, pkts: pkts},
	)
}

// warm returns a clusterer that has seen the row's trace once, so every
// cluster and nominal set is in steady state before anything is counted.
func (r observeRow) warm() *Online {
	o := NewOnline(r.cfg)
	for _, p := range r.pkts {
		o.Observe(p)
	}
	return o
}

// step is the row's i-th packet, after the reseed it is due.
func (r observeRow) step(o *Online, i int) {
	if r.reseed > 0 && i%r.reseed == 0 {
		o.Reseed()
	}
	o.Observe(r.pkts[i%len(r.pkts)])
}

// BenchmarkObserveReference is the naive implementation on the identical
// workload, for every configuration: what the table-driven path is
// measured against, and the only measure of what a Fig. 10 baseline costs
// per packet (see EXPERIMENTS.md "Fast-path microbenchmarks").
func BenchmarkObserveReference(b *testing.B) {
	pkts := benchTrace(1024, 1)
	for _, cfg := range benchCombos() {
		b.Run(comboName(cfg), func(b *testing.B) {
			o := NewReference(cfg)
			for _, p := range pkts {
				o.Observe(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Observe(pkts[i%len(pkts)])
			}
		})
	}
}

// TestObserveFastPathZeroAlloc enforces the zero-allocation guarantee
// on the steady-state Observe path for linear (Fast) search: every
// BenchmarkObserve row, and every Fast row of BenchmarkObserveReference,
// whose naive implementation happens to keep it too. Exhaustive search
// legitimately allocates when it re-seeds a cluster after a merge, so
// BenchmarkObserveReference's exhaustive rows stay ungated on purpose:
// the 0 allocs/op they print is an amortised average rounded down.
//
// The near-miss stream admits a fresh port per packet, and an admission
// appends a value to the cluster's list, which allocates while the list is
// still growing. Once a window of the stream has been through and the
// lists have their length, the next window admits every port again
// without allocating. The Bloom row is the forwarded baseline: its filters
// are fixed-size, and there is no table whose answers could be counted.
func TestObserveFastPathZeroAlloc(t *testing.T) {
	near := nearMissTrace(2049, 1) // AllocsPerRun's warm-up call plus its runs
	bloom := hardwareShape()
	bloom.UseBloom = true
	for _, cfg := range []Config{hardwareShape(), bloom} {
		t.Run("nearmiss/"+comboName(cfg), func(t *testing.T) {
			o := NewOnline(cfg)
			for _, p := range near {
				o.Observe(p)
			}
			o.Reseed()
			i, nears := 0, 0
			vals := make([]uint32, len(cfg.Features))
			allocs := testing.AllocsPerRun(len(near)-1, func() {
				if cfg.Deployed() {
					if _, _, n := o.closest(cfg.Features.Extract(near[i], vals)); n >= 0 {
						nears++
					}
				}
				o.Observe(near[i])
				i++
			})
			if allocs != 0 {
				t.Fatalf("a near-miss Observe allocates %.2f times per packet, want 0", allocs)
			}
			// All but each tile's first packet.
			if want := len(near) - cfg.MaxClusters; cfg.Deployed() && nears < want {
				t.Fatalf("%d of %d packets were near misses, want %d", nears, len(near), want)
			}
		})
	}
	pkts := benchTrace(1024, 1)
	rows := observeRows()
	for _, cfg := range benchCombos() {
		if cfg.Search == Fast && !cfg.Deployed() {
			rows = append(rows, observeRow{name: comboName(cfg), cfg: cfg, pkts: pkts})
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			o := r.warm()
			i := 0
			allocs := testing.AllocsPerRun(2048, func() {
				r.step(o, i)
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state Observe allocates %.2f times per packet, want 0", allocs)
			}
		})
	}
	for _, cfg := range benchCombos() {
		if cfg.Search != Fast {
			continue
		}
		t.Run("reference/"+comboName(cfg), func(t *testing.T) {
			o := NewReference(cfg)
			for _, p := range pkts {
				o.Observe(p)
			}
			i := 0
			allocs := testing.AllocsPerRun(2048, func() {
				o.Observe(pkts[i%len(pkts)])
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state reference Observe allocates %.2f times per packet, want 0", allocs)
			}
		})
	}
}

// TestReseedWindowZeroAlloc holds the controller's steady cycle — Reseed,
// then a window of traffic — to zero allocations: cluster slots are held
// by value and the membership lists keep their backing arrays across
// reseeds, so once a window's worth of values has been seen, re-forming
// the clusters allocates nothing.
func TestReseedWindowZeroAlloc(t *testing.T) {
	pkts := benchTrace(1024, 1)
	sim := DefaultConfig(10, packet.DefaultSimulationFeatures())
	for _, cfg := range []Config{hardwareShape(), sim} {
		o := NewOnline(cfg)
		window := func() {
			o.Reseed()
			for _, p := range pkts {
				o.Observe(p)
			}
		}
		window()
		if allocs := testing.AllocsPerRun(10, window); allocs != 0 {
			t.Errorf("%s, %d features: Reseed plus a window of Observe allocates %.1f times, want 0",
				comboName(cfg), len(cfg.Features), allocs)
		}
	}
}
