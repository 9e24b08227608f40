package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"accturbo/internal/eventsim"
)

// warmPipeline builds a dataplane/control plane pair on a fakeClock,
// runs traffic and a few control-loop cycles, and returns everything a
// snapshot test needs.
func warmPipeline(t *testing.T, cfg Config, concurrent bool) (*Dataplane, *ControlPlane, *fakeClock) {
	t.Helper()
	dp := NewDataplane(cfg, concurrent)
	clk := &fakeClock{}
	cp := newCP(t, dp, clk, cfg)
	cp.Start()
	t.Cleanup(cp.Stop)
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			dp.Classify(mkPkt(i % 17))
		}
		clk.advance(cfg.PollInterval + cfg.DeployDelay)
	}
	return dp, cp, clk
}

// TestSnapshotRoundTrip saves a warmed-up pipeline and restores it into
// a fresh one: the re-saved snapshot must be byte-identical, the
// restored process must report the same deployed decision and queue
// map without any re-convergence, and subsequent identical traffic must
// classify identically on both sides.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shards     int
		concurrent bool
	}{
		{"single", 0, false},
		{"sharded-concurrent", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PollInterval = 100 * eventsim.Millisecond
			cfg.DeployDelay = 10 * eventsim.Millisecond
			cfg.Shards = tc.shards
			dp, cp, _ := warmPipeline(t, cfg, tc.concurrent)

			var buf bytes.Buffer
			if err := SaveState(&buf, dp, cp); err != nil {
				t.Fatalf("SaveState: %v", err)
			}
			blob := append([]byte{}, buf.Bytes()...)

			dp2 := NewDataplane(cfg, tc.concurrent)
			clk2 := &fakeClock{}
			cp2 := newCP(t, dp2, clk2, cfg)
			cp2.Start()
			defer cp2.Stop()
			if err := RestoreState(bytes.NewReader(blob), dp2, cp2); err != nil {
				t.Fatalf("RestoreState: %v", err)
			}

			var buf2 bytes.Buffer
			if err := SaveState(&buf2, dp2, cp2); err != nil {
				t.Fatalf("re-SaveState: %v", err)
			}
			if !bytes.Equal(blob, buf2.Bytes()) {
				t.Fatalf("save→restore→save not byte-identical: %d vs %d bytes", len(blob), buf2.Len())
			}

			if !reflect.DeepEqual(dp2.QueueMap(), dp.QueueMap()) {
				t.Fatal("restored queue map differs")
			}
			if !reflect.DeepEqual(cp2.LastDecision(), cp.LastDecision()) {
				t.Fatal("restored decision differs")
			}
			if got, want := cp2.Deployments(), cp.Deployments(); got != want {
				t.Fatalf("restored deployments = %d, want %d", got, want)
			}
			if got, want := dp2.Observed(), dp.Observed(); got != want {
				t.Fatalf("restored observed = %d, want %d", got, want)
			}
			if !reflect.DeepEqual(dp2.Snapshot(), dp.Snapshot()) {
				t.Fatal("restored cluster snapshots differ")
			}

			// Identical post-restore traffic classifies identically —
			// the restored clusterers are behaviorally the originals.
			for i := 0; i < 200; i++ {
				p1, p2 := mkPkt(i%23), mkPkt(i%23)
				a1, q1 := dp.Classify(p1)
				a2, q2 := dp2.Classify(p2)
				if a1 != a2 || q1 != q2 {
					t.Fatalf("packet %d diverges: (%+v,%d) vs (%+v,%d)", i, a1, q1, a2, q2)
				}
			}
		})
	}
}

// TestSnapshotRestoresRuntimeConfig reconfigures before saving and
// checks the restored control plane runs under the patched runtime
// config, not the constructor's.
func TestSnapshotRestoresRuntimeConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp, cp, _ := warmPipeline(t, cfg, false)

	quick := 25 * eventsim.Millisecond
	byRate := ByPacketRate
	if _, err := cp.Reconfigure(RuntimePatch{PollInterval: &quick, Ranking: &byRate}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}

	var buf bytes.Buffer
	if err := SaveState(&buf, dp, cp); err != nil {
		t.Fatalf("SaveState: %v", err)
	}

	dp2 := NewDataplane(cfg, false)
	clk2 := &fakeClock{}
	cp2 := newCP(t, dp2, clk2, cfg)
	cp2.Start()
	defer cp2.Stop()
	if err := RestoreState(&buf, dp2, cp2); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	rt := cp2.Runtime()
	if rt.PollInterval != quick || rt.Ranking != byRate {
		t.Fatalf("restored runtime = %+v, want poll %v ranking %v", rt, quick, byRate)
	}
	// The restored cadence is actually scheduled, not just reported.
	feedSteady(dp2)
	deploysBefore := cp2.Deployments()
	clk2.advance(100 * eventsim.Millisecond)
	if got := cp2.Deployments() - deploysBefore; got != 3 {
		t.Fatalf("restored loop deployed %d times in 100ms, want 3 at a 25ms cadence", got)
	}
}

// TestSnapshotRejects covers the container's refusal paths: corruption
// (checksum), truncation, bad magic, version skew, structural mismatch,
// and restoring over a pipeline that already has history.
func TestSnapshotRejects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	dp, cp, _ := warmPipeline(t, cfg, false)
	var buf bytes.Buffer
	if err := SaveState(&buf, dp, cp); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	blob := buf.Bytes()

	fresh := func(t *testing.T, c Config) (*Dataplane, *ControlPlane) {
		d := NewDataplane(c, false)
		return d, newCP(t, d, &fakeClock{}, c)
	}

	t.Run("checksum", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		bad[len(bad)/2] ^= 0x40
		d, c := fresh(t, cfg)
		if err := RestoreState(bytes.NewReader(bad), d, c); err == nil {
			t.Fatal("accepted a corrupt snapshot")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		d, c := fresh(t, cfg)
		if err := RestoreState(bytes.NewReader(blob[:len(blob)-7]), d, c); err == nil {
			t.Fatal("accepted a truncated snapshot")
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		bad[0] = 'X'
		d, c := fresh(t, cfg)
		if err := RestoreState(bytes.NewReader(bad), d, c); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("version", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		bad[8] = 0xFF
		d, c := fresh(t, cfg)
		if err := RestoreState(bytes.NewReader(bad), d, c); err == nil {
			t.Fatal("accepted an unknown version")
		}
	})
	t.Run("structural-mismatch", func(t *testing.T) {
		other := cfg
		other.Shards = 2
		d, c := fresh(t, other)
		if err := RestoreState(bytes.NewReader(blob), d, c); err == nil {
			t.Fatal("accepted a snapshot with a different shard count")
		}
	})
	t.Run("not-fresh", func(t *testing.T) {
		d, c := fresh(t, cfg)
		assign(d, mkPkt(1))
		if err := RestoreState(bytes.NewReader(blob), d, c); err == nil {
			t.Fatal("accepted a restore over a pipeline with history")
		}
	})
}

// TestRestoreRefusalLeavesPipelineUntouched hands RestoreState a
// snapshot whose frame is sound but whose second shard's clusterer
// stream is one byte too long. The refusal comes from the last shard, so
// it must find the runtime config, its generation, the first shard and
// the observed count as they were — the pipeline is still fresh enough
// to take the intact snapshot.
func TestRestoreRefusalLeavesPipelineUntouched(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	cfg.Shards = 2
	dp, cp, _ := warmPipeline(t, cfg, false)
	quick := 25 * eventsim.Millisecond
	if _, err := cp.Reconfigure(RuntimePatch{PollInterval: &quick}); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	var buf bytes.Buffer
	if err := SaveState(&buf, dp, cp); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	snap := buf.Bytes()
	payload := snap[18 : len(snap)-4]
	stream := dp.shards[1].clusterer.Marshal()
	at := bytes.LastIndex(payload, stream)
	if at < 4 || dp.shards[0].clusterer.Observed == 0 || dp.shards[1].clusterer.Observed == 0 {
		t.Fatalf("shard 1's stream at %d of the payload; shards observed %d and %d packets",
			at, dp.shards[0].clusterer.Observed, dp.shards[1].clusterer.Observed)
	}
	bad := append([]byte{}, payload[:at-4]...)
	bad = binary.LittleEndian.AppendUint32(bad, uint32(len(stream)+1))
	bad = append(append(bad, stream...), 0)
	bad = append(bad, payload[at+len(stream):]...)
	framed := binary.LittleEndian.AppendUint64(append([]byte{}, snap[:10]...), uint64(len(bad)))
	framed = binary.LittleEndian.AppendUint32(append(framed, bad...), crc32.ChecksumIEEE(bad))

	dp2 := NewDataplane(cfg, false)
	cp2 := newCP(t, dp2, &fakeClock{}, cfg)
	shard0, rt, gen := dp2.shards[0].clusterer.Marshal(), cp2.Runtime(), cp2.ConfigGeneration()
	err := RestoreState(bytes.NewReader(framed), dp2, cp2)
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("RestoreState = %v, want shard 1's refusal", err)
	}
	if cp2.Runtime() != rt || cp2.ConfigGeneration() != gen {
		t.Errorf("refused restore left runtime %+v generation %d, was %+v generation %d",
			cp2.Runtime(), cp2.ConfigGeneration(), rt, gen)
	}
	if !bytes.Equal(dp2.shards[0].clusterer.Marshal(), shard0) || dp2.Observed() != 0 {
		t.Errorf("refused restore loaded shard 0 (%d packets observed)", dp2.Observed())
	}
	if err := RestoreState(bytes.NewReader(snap), dp2, cp2); err != nil {
		t.Errorf("intact snapshot after the refusal: %v", err)
	}
}
