package core

import (
	"bytes"
	"fmt"
	"testing"

	"accturbo/internal/packet"
)

// countsPhases is how many stretches the tally streams are cut into;
// a remapping Deploy goes between each two.
const countsPhases = 3

// remap is a cluster→queue mapping that differs from the initial
// all-zero one and from every other k, so each Deploy moves populated
// slots to other queues.
func remap(cfg Config, k int) []int {
	qm := make([]int, cfg.Clustering.MaxClusters)
	for c := range qm {
		qm[c] = (c + k) % cfg.NumQueues
	}
	return qm
}

// countsTally is the independent record: every packet's (cluster,
// queue) as Classify returned it, summed per slot and per queue.
type countsTally struct {
	cluster, queue   []int
	assigned, routed []uint64
}

func newCountsTally(cfg Config) *countsTally {
	return &countsTally{
		assigned: make([]uint64, cfg.Clustering.MaxClusters),
		routed:   make([]uint64, cfg.NumQueues),
	}
}

func (tl *countsTally) add(c, q int) {
	tl.cluster = append(tl.cluster, c)
	tl.queue = append(tl.queue, q)
	tl.assigned[c]++
	tl.routed[q]++
}

// phase returns the stream bounds of phase i of n packets.
func phase(i, n int) (lo, hi int) { return i * n / countsPhases, (i + 1) * n / countsPhases }

// classifyTally feeds pkts through Classify with a remapping Deploy
// between phases, recording each packet's answer.
func classifyTally(dp *Dataplane, pkts []*packet.Packet, first int) *countsTally {
	tl := newCountsTally(dp.cfg)
	for ph := 0; ph < countsPhases; ph++ {
		if ph > 0 {
			dp.Deploy(remap(dp.cfg, first+ph))
		}
		lo, hi := phase(ph, len(pkts))
		for _, p := range pkts[lo:hi] {
			a, q := dp.Classify(p)
			tl.add(a.Cluster, q)
		}
	}
	return tl
}

// checkCounts requires dp's counters to equal the tally plus a base.
func checkCounts(t *testing.T, label string, dp *Dataplane, tl *countsTally, baseA, baseR []uint64) {
	t.Helper()
	gotA, gotR := dp.Counts()
	var total uint64
	for c, got := range gotA {
		want := tl.assigned[c]
		if baseA != nil {
			want += baseA[c]
		}
		if got != want {
			t.Fatalf("%s: assigned[%d] = %d, tally %d", label, c, got, want)
		}
		total += got
	}
	for q, got := range gotR {
		want := tl.routed[q]
		if baseR != nil {
			want += baseR[q]
		}
		if got != want {
			t.Fatalf("%s: routed[%d] = %d, tally %d", label, q, got, want)
		}
	}
	if dp.Observed() != total {
		t.Fatalf("%s: observed %d, Σassigned %d", label, dp.Observed(), total)
	}
}

// TestCountsMatchIndependentTally holds every door's per-slot and
// per-queue counters to a tally of what Classify answered packet by
// packet, across two deploys that remap populated slots: a routing
// total derived from the mapping live at read time would miscount
// every packet classified before the last deploy. ObserveShardFrames
// sees the same stream with the same deploy points, so its queue
// answers must match the tally's too.
func TestCountsMatchIndependentTally(t *testing.T) {
	const n = 3000
	pkts, views := mkFrames(t, n)
	for _, shards := range []int{1, 4} {
		for _, concurrent := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Shards = shards
			cfg = cfg.withDefaults()
			mode := fmt.Sprintf("shards=%d concurrent=%v", shards, concurrent)

			ref := NewDataplane(cfg, concurrent)
			tl := classifyTally(ref, pkts, 0)
			checkCounts(t, mode+" Classify", ref, tl, nil, nil)

			framed := NewDataplane(cfg, concurrent)
			ffs := toFeatures(cfg, views)
			gotQ := make([]int, n)
			for ph := 0; ph < countsPhases; ph++ {
				if ph > 0 {
					framed.Deploy(remap(cfg, ph))
				}
				lo, hi := phase(ph, n)
				bySh := make([][]int, shards)
				for i := lo; i < hi; i++ {
					si := framed.ShardOfFrame(&views[i])
					bySh[si] = append(bySh[si], i)
				}
				for si, idx := range bySh {
					seg := make([]FrameFeatures, len(idx))
					for j, i := range idx {
						seg[j] = ffs[i]
					}
					qbuf := make([]int, len(seg))
					for lo := 0; lo < len(seg); {
						end := min(lo+1+lo%61, len(seg))
						framed.ObserveShardFrames(si, seg[lo:end], qbuf[lo:end])
						lo = end
					}
					for j, i := range idx {
						gotQ[i] = qbuf[j]
					}
				}
			}
			checkQueues(t, mode+" ObserveShardFrames", gotQ, tl.queue)
			checkCounts(t, mode+" ObserveShardFrames", framed, tl, nil, nil)
		}
	}
}

func checkQueues(t *testing.T, label string, got, want []int) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: packet %d queued %d, Classify answered %d", label, i, got[i], want[i])
		}
	}
}

// TestCountsAfterRestore: a restored pipeline's counters are the saved
// marginals plus what it classifies afterwards, across deploys.
func TestCountsAfterRestore(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, concurrent := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Shards = shards
			cfg = cfg.withDefaults()
			mode := fmt.Sprintf("shards=%d concurrent=%v", shards, concurrent)

			dp, cp, _ := warmPipeline(t, cfg, concurrent)
			dp.Deploy(remap(cfg, 1))
			for i := 0; i < 300; i++ {
				dp.Classify(mkPkt(i))
			}
			savedA, savedR := dp.Counts()
			var buf bytes.Buffer
			if err := SaveState(&buf, dp, cp); err != nil {
				t.Fatalf("%s: SaveState: %v", mode, err)
			}

			dp2 := NewDataplane(cfg, concurrent)
			cp2 := newCP(t, dp2, &fakeClock{}, cfg)
			if err := RestoreState(&buf, dp2, cp2); err != nil {
				t.Fatalf("%s: RestoreState: %v", mode, err)
			}
			checkCounts(t, mode+" restored", dp2, newCountsTally(cfg), savedA, savedR)

			pkts := make([]*packet.Packet, 900)
			for i := range pkts {
				pkts[i] = mkPkt(i + 500)
			}
			tl := classifyTally(dp2, pkts, 2)
			checkCounts(t, mode+" restored+traffic", dp2, tl, savedA, savedR)
		}
	}
}
