package core

import (
	"testing"

	"accturbo/internal/packet"
)

// mkFrames marshals n mkPkt packets to wire frames and parses them into
// views, returning both representations of the same stream.
func mkFrames(t testing.TB, n int) ([]*packet.Packet, []packet.FrameView) {
	t.Helper()
	pkts := make([]*packet.Packet, n)
	views := make([]packet.FrameView, n)
	for i := range pkts {
		wire := make([]byte, mkPkt(i).WireLen())
		if err := mkPkt(i).MarshalTo(wire); err != nil {
			t.Fatal(err)
		}
		// Re-unmarshal so the packet side carries exactly what the wire
		// carries (labels and sim-only fields do not survive a frame).
		p, err := packet.Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		v, err := packet.ParseFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i], views[i] = p, v
	}
	return pkts, views
}

// toFeatures reduces parsed views to the FrameFeatures records the
// ingest producer hands the shard consumers.
func toFeatures(cfg Config, views []packet.FrameView) []FrameFeatures {
	fs := cfg.Clustering.Features
	out := make([]FrameFeatures, len(views))
	for i := range views {
		v := &views[i]
		out[i].Size = uint32(v.Length())
		v.Features(fs, out[i].Vals[:len(fs)])
	}
	return out
}

// TestShardOfFrameMatchesShardOf: a frame and the packet unmarshaled
// from it must demux to the same shard — the invariant that keeps flows
// shard-affine across the struct and frame ingest paths.
func TestShardOfFrameMatchesShardOf(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	dp := NewDataplane(cfg, false)
	pkts, views := mkFrames(t, 512)
	for i := range pkts {
		if a, b := dp.ShardOf(pkts[i]), dp.ShardOfFrame(&views[i]); a != b {
			t.Fatalf("packet %d: shard %d via struct, %d via frame", i, a, b)
		}
	}
}

// TestObserveShardFramesMatchesClassify drives the same wire stream
// through per-packet Classify (struct path) and through per-shard
// ObserveShardFrames (fused frame path, demuxed the way the ring
// consumers demux) and requires identical queue decisions, counters,
// and cluster state.
func TestObserveShardFramesMatchesClassify(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		structSide := NewDataplane(cfg, false)
		frameSide := NewDataplane(cfg, false)

		const n = 4096
		pkts, views := mkFrames(t, n)
		wantQ := make([]int, n)
		for i, p := range pkts {
			_, wantQ[i] = structSide.Classify(p)
		}

		// Demux frames to shards preserving stream order, as the ring
		// consumers see them, then feed each shard in uneven chunks.
		ffs := toFeatures(cfg, views)
		bySh := make([][]FrameFeatures, shards)
		origIdx := make([][]int, shards)
		for i := range views {
			si := frameSide.ShardOfFrame(&views[i])
			bySh[si] = append(bySh[si], ffs[i])
			origIdx[si] = append(origIdx[si], i)
		}
		gotQ := make([]int, n)
		for si := range bySh {
			seg, idx := bySh[si], origIdx[si]
			qbuf := make([]int, len(seg))
			for lo := 0; lo < len(seg); {
				hi := lo + 1 + (lo % 61)
				if hi > len(seg) {
					hi = len(seg)
				}
				frameSide.ObserveShardFrames(si, seg[lo:hi], qbuf[lo:hi])
				lo = hi
			}
			for j, q := range qbuf {
				gotQ[idx[j]] = q
			}
		}

		for i := range wantQ {
			if gotQ[i] != wantQ[i] {
				t.Fatalf("shards=%d: packet %d queued %d via frames, %d via structs",
					shards, i, gotQ[i], wantQ[i])
			}
		}
		if a, b := structSide.Observed(), frameSide.Observed(); a != b {
			t.Fatalf("shards=%d: observed %d via frames, %d via structs", shards, b, a)
		}
		wantA, wantR := structSide.Counts()
		gotA, gotR := frameSide.Counts()
		for i := range wantA {
			if gotA[i] != wantA[i] {
				t.Fatalf("shards=%d: assigned[%d] = %d via frames, %d via structs", shards, i, gotA[i], wantA[i])
			}
		}
		for i := range wantR {
			if gotR[i] != wantR[i] {
				t.Fatalf("shards=%d: routed[%d] = %d via frames, %d via structs", shards, i, gotR[i], wantR[i])
			}
		}
		for s := 0; s < shards; s++ {
			a, b := structSide.shards[s].clusterer.Snapshot(), frameSide.shards[s].clusterer.Snapshot()
			if len(a) != len(b) {
				t.Fatalf("shards=%d: shard %d has %d clusters via frames, %d via structs", shards, s, len(b), len(a))
			}
			for i := range a {
				if a[i].Packets != b[i].Packets || a[i].Bytes != b[i].Bytes || a[i].Size != b[i].Size {
					t.Fatalf("shards=%d: shard %d cluster %d diverged: %+v vs %+v", shards, s, i, b[i], a[i])
				}
				for f := range a[i].Ranges {
					if a[i].Ranges[f] != b[i].Ranges[f] {
						t.Fatalf("shards=%d: shard %d cluster %d range %d diverged", shards, s, i, f)
					}
				}
			}
		}
	}
}

// TestObserveShardFramesZeroAlloc gates the frame consumer hot path:
// once the scratch pool is warm, classifying a frame batch allocates
// nothing.
func TestObserveShardFramesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := DefaultConfig()
	cfg.Shards = 1
	dp := NewDataplane(cfg, true)
	_, views := mkFrames(t, 256)
	ffs := toFeatures(cfg, views)
	queues := make([]int, len(ffs))
	dp.ObserveShardFrames(0, ffs, queues)
	allocs := testing.AllocsPerRun(100, func() {
		dp.ObserveShardFrames(0, ffs, queues)
	})
	if allocs != 0 {
		t.Fatalf("ObserveShardFrames allocates %v per batch, want 0", allocs)
	}
}
