package accturbo

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment (Quick mode, so
// a full -bench=. pass stays tractable) and reports the headline
// metrics as custom benchmark outputs alongside the usual ns/op.
//
//	go test -bench=Fig6 -benchtime=1x .
//
// regenerates Fig. 6 and prints, e.g.:
//
//	BenchmarkFig6-8  1  1.3e9 ns/op  0.02 benign-drops-%  91 fifo-reduction-%
//
// Absolute timing is irrelevant; the custom metrics carry the result.
// For the paper-fidelity numbers (recorded in EXPERIMENTS.md), run
// cmd/experiments without -quick.

import (
	"fmt"
	"testing"
	"time"

	"accturbo/internal/experiments"
)

// benchOpts use Quick mode: full fidelity is cmd/experiments' job.
var benchOpts = experiments.Options{Quick: true, Seed: 1}

// runExperiment executes the experiment once per benchmark iteration
// and returns the last result.
func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = e.Run(benchOpts)
	}
	return res
}

// series fetches a named series from the result.
func series(b *testing.B, r *experiments.Result, name string) experiments.Series {
	b.Helper()
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	b.Fatalf("series %q missing from %s", name, r.ID)
	return experiments.Series{}
}

func meanTail(ys []float64, from, to int) float64 {
	if to > len(ys) {
		to = len(ys)
	}
	if from >= to {
		return 0
	}
	var sum float64
	for i := from; i < to; i++ {
		sum += ys[i]
	}
	return sum / float64(to-from)
}

// BenchmarkFig2 regenerates the original ACC experiment (Fig. 2):
// attack share under FIFO vs ACC vs ACC-Turbo during the plateau.
func BenchmarkFig2(b *testing.B) {
	r := runExperiment(b, "fig2")
	b.ReportMetric(meanTail(series(b, r, "FIFO/Agg5").Y, 20, 25), "fifo-attack-share")
	b.ReportMetric(meanTail(series(b, r, "ACC/Agg5").Y, 20, 25), "acc-attack-share")
	b.ReportMetric(meanTail(series(b, r, "ACC-Turbo/Agg5").Y, 20, 25), "turbo-attack-share")
}

// BenchmarkFig3 regenerates the pulse-wave experiment (Fig. 3):
// benign drop percentages per defense.
func BenchmarkFig3(b *testing.B) {
	r := runExperiment(b, "fig3")
	b.ReportMetric(series(b, r, "Fig3b/FIFO").Y[0], "fifo-benign-drops-%")
	b.ReportMetric(series(b, r, "Fig3b/ACC-Turbo").Y[0], "turbo-benign-drops-%")
	acc := series(b, r, "Fig3b/ACC benign drops vs K")
	best := acc.Y[0]
	for _, v := range acc.Y {
		if v < best {
			best = v
		}
	}
	b.ReportMetric(best, "acc-best-benign-drops-%")
}

// BenchmarkFig6 regenerates the hardware pulse-wave mitigation
// (Fig. 6): benign throughput during pulses, FIFO vs ACC-Turbo.
func BenchmarkFig6(b *testing.B) {
	r := runExperiment(b, "fig6")
	b.ReportMetric(meanTail(series(b, r, "FIFO/Output Benign").Y, 11, 19), "fifo-benign-mbps")
	b.ReportMetric(meanTail(series(b, r, "ACC-Turbo/Output Benign").Y, 11, 19), "turbo-benign-mbps")
}

// BenchmarkFig7 regenerates the reaction-time comparison (Fig. 7):
// benign throughput in the first attack second.
func BenchmarkFig7(b *testing.B) {
	r := runExperiment(b, "fig7")
	b.ReportMetric(series(b, r, "FIFO/Benign").Y[20], "fifo-first-second-mbps")
	b.ReportMetric(series(b, r, "ACC-Turbo/Benign").Y[20], "turbo-first-second-mbps")
	b.ReportMetric(series(b, r, "Jaqen/Benign").Y[20], "jaqen-first-second-mbps")
}

// BenchmarkFig8 regenerates the threshold-sensitivity sweep (Fig. 8):
// the spread of Jaqen's benign drops across thresholds vs ACC-Turbo's
// fixed (threshold-free) damage.
func BenchmarkFig8(b *testing.B) {
	r := runExperiment(b, "fig8")
	j := series(b, r, "Fig8a/Jaqen")
	lo, hi := j.Y[0], j.Y[0]
	for _, v := range j.Y {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	b.ReportMetric(hi-lo, "jaqen-threshold-spread-%")
	b.ReportMetric(series(b, r, "Fig8a/ACC-Turbo").Y[0], "turbo-benign-drops-%")
}

// BenchmarkFig9 regenerates the clustering-quality split (Fig. 9):
// average purity per vector class.
func BenchmarkFig9(b *testing.B) {
	r := runExperiment(b, "fig9")
	p := series(b, r, "Fig9a/Purity by vector")
	var refl, expl float64
	for i, v := range p.Y {
		if i < 7 {
			refl += v / 7
		} else {
			expl += v / 2
		}
	}
	b.ReportMetric(refl, "reflection-purity-%")
	b.ReportMetric(expl, "exploitation-purity-%")
}

// BenchmarkFig10 regenerates the strategy comparison (Fig. 10): purity
// of the deployable configuration and the strongest baseline at the
// largest cluster count.
func BenchmarkFig10(b *testing.B) {
	r := runExperiment(b, "fig10")
	manh := series(b, r, "Purity/Manh. Fast")
	anime := series(b, r, "Purity/Anime Exh.")
	km := series(b, r, "Purity/Off. KMeans")
	last := len(manh.Y) - 1
	b.ReportMetric(manh.Y[last], "manh-fast-purity-%")
	b.ReportMetric(anime.Y[last], "anime-exh-purity-%")
	b.ReportMetric(km.Y[last], "kmeans-purity-%")
}

// BenchmarkFig11 regenerates the scheduling evaluation (Fig. 11):
// benign drops at the largest swept bottleneck.
func BenchmarkFig11(b *testing.B) {
	r := runExperiment(b, "fig11")
	b.ReportMetric(series(b, r, "Fig11b/FIFO").Y[0], "fifo-benign-drops-%")
	b.ReportMetric(series(b, r, "Fig11b/Manh. Fast Th.").Y[0], "turbo-benign-drops-%")
	b.ReportMetric(series(b, r, "Fig11b/PIFO Ideal").Y[0], "ideal-benign-drops-%")
}

// BenchmarkTable3 regenerates the mitigation-efficiency table: benign
// drops for the spoofed-attack column (the one Jaqen cannot match).
func BenchmarkTable3(b *testing.B) {
	r := runExperiment(b, "table3")
	b.ReportMetric(series(b, r, "FIFO").Y[3], "fifo-spoofed-drops-%")
	b.ReportMetric(series(b, r, "Jaqen+ (5-tuple)").Y[3], "jaqen-spoofed-drops-%")
	b.ReportMetric(series(b, r, "ACC-Turbo").Y[3], "turbo-spoofed-drops-%")
}

// BenchmarkTable4 regenerates (and re-verifies) the ACC parameter
// table.
func BenchmarkTable4(b *testing.B) {
	r := runExperiment(b, "table4")
	b.ReportMetric(series(b, r, "K (s)").Y[0], "K-seconds")
	b.ReportMetric(series(b, r, "max sessions").Y[0], "sessions")
}

// BenchmarkDefenseProcess measures the standalone pipeline's per-packet
// cost — the number that would gate a software deployment of the
// public API. The flattened clusterer fast path keeps this path
// allocation free; internal/cluster's BenchmarkObserve isolates the
// clustering step across every distance/search configuration.
func BenchmarkDefenseProcess(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clustering.SliceInit = true
	d := build(b, NewDefense, cfg)
	pkts := benignPackets(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(0, pkts[i%len(pkts)])
	}
}

// BenchmarkDefenseProcessExhaustive is the same pipeline under
// exhaustive search, a baseline configuration: the clusterer behind it
// is the naive reference with its O(|C|^2) rescan per uncovered packet.
func BenchmarkDefenseProcessExhaustive(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clustering.Search = SearchExhaustive
	d := build(b, NewDefense, cfg)
	pkts := benignPackets(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Process(0, pkts[i%len(pkts)])
	}
}

// quietDefense is the pipeline of BenchmarkDefenseProcess (shards == 0)
// or of BenchmarkDefenseSharded (real time at that many shards), warmed
// on pkts, with a poll interval no test outlives: what
// TestProcessZeroAlloc counts is the packet path, not the control loop's
// allocations on another goroutine.
func quietDefense(t *testing.T, shards int, pkts []*Packet) *Defense {
	cfg := DefaultConfig()
	cfg.Clustering.SliceInit = true
	cfg.PollInterval = FromDuration(time.Hour)
	newDefense := NewDefense
	if shards > 0 {
		cfg.Shards = shards
		newDefense = NewRealTimeDefense
	}
	d := build(t, newDefense, cfg)
	t.Cleanup(d.Close)
	for _, p := range pkts {
		d.Process(0, p)
	}
	return d
}

// benignPackets is the working set the Defense benchmarks cycle through.
func benignPackets(n int) []*Packet {
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = benignPacket(i)
	}
	return pkts
}

// TestProcessZeroAlloc holds Defense.Process to the 0 allocs/op of
// BenchmarkDefenseProcess and every BenchmarkDefenseSharded row: a warm
// pipeline classifies a packet without allocating, deterministic or
// real time at any shard count.
func TestProcessZeroAlloc(t *testing.T) {
	pkts := benignPackets(1024)
	for _, shards := range []int{0, 1, 2, 4, 8} {
		d := quietDefense(t, shards, pkts)
		allocs := testing.AllocsPerRun(20, func() {
			for _, p := range pkts {
				d.Process(0, p)
			}
		})
		if allocs != 0 {
			t.Errorf("shards=%d (0 = deterministic): Process allocates %v per %d packets, want 0", shards, allocs, len(pkts))
		}
	}
}

// BenchmarkEndToEndSim is the whole-simulator benchmark behind the
// EXPERIMENTS.md perf table: one full fig8-quick run per iteration —
// event engine, traffic generation, packet pooling, queueing, clustering
// and the control loop all on the clock. The allocs/op column is the
// headline: the per-packet path allocates nothing, so the total stays
// flat as simulated traffic grows.
func BenchmarkEndToEndSim(b *testing.B) {
	e, err := experiments.ByID("fig8")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(benchOpts)
	}
}

// BenchmarkDefenseSharded measures aggregate Observe throughput of the
// concurrent pipeline at 1/2/4/8 shards, fed via RunParallel from
// GOMAXPROCS goroutines. All shard counts run the same locked
// concurrent mode, so the sweep isolates what sharding buys: per-shard
// locks stop contending once flows spread across pipelines. On a
// multi-core runner 4 shards should clear ~2x the 1-shard rate; on a
// single core the sweep degenerates to lock overhead only.
func BenchmarkDefenseSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Clustering.SliceInit = true
			cfg.Shards = shards
			d := build(b, NewRealTimeDefense, cfg)
			defer d.Close()
			pkts := benignPackets(1024)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					d.Process(0, pkts[i%len(pkts)])
					i++
				}
			})
		})
	}
}

// BenchmarkAdversarial regenerates the §9 extension: mitigation
// degradation under evasion.
func BenchmarkAdversarial(b *testing.B) {
	r := runExperiment(b, "adversarial")
	ev := series(b, r, "Evasion/benign drops")
	b.ReportMetric(ev.Y[0], "plain-flood-benign-drops-%")
	b.ReportMetric(ev.Y[len(ev.Y)-1], "full-random-benign-drops-%")
}

// BenchmarkAblations regenerates the design-knob ablations: the
// controller-period lever.
func BenchmarkAblations(b *testing.B) {
	r := runExperiment(b, "ablations")
	poll := series(b, r, "Poll period (s) vs benign drops")
	b.ReportMetric(poll.Y[0], "fast-controller-benign-drops-%")
	b.ReportMetric(poll.Y[len(poll.Y)-1], "slow-controller-benign-drops-%")
	b.ReportMetric(series(b, r, "Reordered delivered packets (%)").Y[0], "reordered-%")
}

// BenchmarkPushback regenerates the original-ACC pushback extension.
func BenchmarkPushback(b *testing.B) {
	r := runExperiment(b, "pushback")
	b.ReportMetric(series(b, r, "Local ACC/benign drops").Y[0], "local-benign-drops-%")
	b.ReportMetric(series(b, r, "Pushback ACC/benign drops").Y[0], "pushback-benign-drops-%")
}

// BenchmarkTCP regenerates the closed-loop AIMD extension.
func BenchmarkTCP(b *testing.B) {
	r := runExperiment(b, "tcp")
	b.ReportMetric(series(b, r, "FIFO/total goodput (Mbps)").Y[0], "fifo-goodput-mbps")
	b.ReportMetric(series(b, r, "ACC-Turbo/total goodput (Mbps)").Y[0], "turbo-goodput-mbps")
}
