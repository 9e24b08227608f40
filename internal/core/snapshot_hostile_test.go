package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"accturbo/internal/eventsim"
	"accturbo/internal/frame"
)

// allocated reports the bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// parentSnapshots are ACCSNAP1 files the parent commit wrote mid-trace,
// each with a deployed Decision: one from a deterministic single
// pipeline, one from a two-shard concurrent (real-time) one.
var parentSnapshots = []struct {
	file       string
	shards     int
	concurrent bool
}{
	{"testdata/parent_deterministic.snap", 0, false},
	{"testdata/parent_realtime2.snap", 2, true},
}

// freshFor builds the unstarted pipeline parentSnapshots[which] restores
// into.
func freshFor(tb testing.TB, which int) (*Dataplane, *ControlPlane) {
	c := parentSnapshots[which]
	cfg := DefaultConfig()
	cfg.PollInterval = 100 * eventsim.Millisecond
	cfg.DeployDelay = 10 * eventsim.Millisecond
	cfg.Shards = c.shards
	dp := NewDataplane(cfg, c.concurrent)
	return dp, newCP(tb, dp, &fakeClock{}, cfg)
}

func saved(t testing.TB, dp *Dataplane, cp *ControlPlane) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveState(&buf, dp, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapFile frames payload as an ACCSNAP1 file with a valid checksum.
func snapFile(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.WriteContainer(&buf, snapMagic, snapVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParentSnapshotsRestoreByteIdentically: files written before the
// codecs were merged restore and re-save to the same bytes.
func TestParentSnapshotsRestoreByteIdentically(t *testing.T) {
	for i, c := range parentSnapshots {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		dp, cp := freshFor(t, i)
		if err := RestoreState(bytes.NewReader(want), dp, cp); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if dec := cp.LastDecision(); dec == nil || len(dec.Clusters) == 0 || cp.Deployments() == 0 || dp.Observed() == 0 {
			t.Errorf("%s: restored no deployed decision or no traffic", c.file)
		}
		if !bytes.Equal(saved(t, dp, cp), want) {
			t.Errorf("%s: restore and re-save changed the bytes", c.file)
		}
	}
}

// TestRestoreRefusesHostileCounts puts the largest count in every count
// position of a sound payload and reframes it with a valid checksum:
// RestoreState must refuse each having sized nothing from the count, and
// leave the pipeline as it was. At the parent commit the first of them
// allocates gigabytes.
func TestRestoreRefusesHostileCounts(t *testing.T) {
	for which, c := range parentSnapshots {
		file, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		p := file[18 : len(file)-4]
		le := binary.LittleEndian
		u32 := func(at int) int { return int(le.Uint32(p[at:])) }

		// Walk the payload, noting where each count sits.
		off := 3*4 + 1 + 5*8 // shape fingerprint, runtime config
		counts := []int{off} // queue map
		off += 4 + 4*u32(off)
		for s := 0; s < max(c.shards, 1); s++ {
			counts = append(counts, off) // a shard's clusterer stream
			off += 4 + u32(off)
		}
		off += 1 + 2*8               // decision present, At, DeployedAt
		counts = append(counts, off) // its clusters
		infos := u32(off)
		off += 4
		for i := 0; i < infos; i++ {
			off += 5
			counts = append(counts, off) // ranges
			off += 4 + 8*u32(off)
			counts = append(counts, off) // cardinalities
			off += 4 + 4*u32(off)
			off += 6 * 8
		}
		counts = append(counts, off) // rank
		off += 4 + 8*u32(off)
		counts = append(counts, off) // queue of
		off += 4 + 4*u32(off)
		off += 1 + 4 + 4*8           // fail-open, stale count, lifetime counters
		counts = append(counts, off) // assigned
		off += 4 + 8*u32(off)
		counts = append(counts, off) // routed
		off += 4 + 8*u32(off)
		if off != len(p) {
			t.Fatalf("%s: walked %d of %d payload bytes: the layout moved", c.file, off, len(p))
		}

		dp, cp := freshFor(t, which)
		before, gen := saved(t, dp, cp), cp.ConfigGeneration()
		for _, at := range counts {
			bad := append([]byte(nil), p...)
			le.PutUint32(bad[at:], 1<<32-1)
			r := bytes.NewReader(snapFile(t, bad))
			var err error
			if got := allocated(func() { err = RestoreState(r, dp, cp) }); got > 1<<20 {
				t.Errorf("%s: count at byte %d: %d bytes allocated", c.file, at, got)
			}
			if err == nil {
				t.Fatalf("%s: count at byte %d: accepted", c.file, at)
			}
			if !bytes.Equal(saved(t, dp, cp), before) || cp.ConfigGeneration() != gen {
				t.Fatalf("%s: count at byte %d: the refusal changed the pipeline", c.file, at)
			}
		}

		// A queue the pipeline does not have would index past the batch
		// path's per-queue counters.
		bad := append([]byte(nil), p...)
		le.PutUint32(bad[counts[0]+4:], uint32(dp.cfg.NumQueues))
		if err := RestoreState(bytes.NewReader(snapFile(t, bad)), dp, cp); err == nil {
			t.Fatalf("%s: accepted a queue map naming queue %d", c.file, dp.cfg.NumQueues)
		}
		if !bytes.Equal(saved(t, dp, cp), before) {
			t.Fatalf("%s: the queue-map refusal changed the pipeline", c.file)
		}

		// The watchdog-interval slot after the runtime config is retired:
		// every file holds 0 there, and anything else is refused.
		slot := 3*4 + 1 + 4*8
		if le.Uint64(p[slot:]) != 0 {
			t.Fatalf("%s: watchdog slot holds %d", c.file, le.Uint64(p[slot:]))
		}
		bad = append([]byte(nil), p...)
		le.PutUint64(bad[slot:], uint64(50*eventsim.Millisecond))
		if err := RestoreState(bytes.NewReader(snapFile(t, bad)), dp, cp); err == nil || !strings.Contains(err.Error(), "watchdog interval") {
			t.Fatalf("%s: a non-zero watchdog slot: %v", c.file, err)
		}
		if !bytes.Equal(saved(t, dp, cp), before) || cp.ConfigGeneration() != gen {
			t.Fatalf("%s: the watchdog-slot refusal changed the pipeline", c.file)
		}
	}
}

// TestRestoreRefusesTheSmallHostileFile is the measurement that opened
// this work: a 79-byte, checksum-valid file — a sound payload cut after
// the queue-map count, the count set to 2^27 — made the parent commit
// allocate 1 GiB and spin for 16 s before refusing it.
func TestRestoreRefusesTheSmallHostileFile(t *testing.T) {
	file, err := os.ReadFile(parentSnapshots[0].file)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), file[18:18+3*4+1+5*8+4]...)
	binary.LittleEndian.PutUint32(payload[len(payload)-4:], 1<<27)
	hostile := snapFile(t, payload)
	if len(hostile) != 79 {
		t.Fatalf("the file is %d bytes", len(hostile))
	}
	dp, cp := freshFor(t, 0)
	start := time.Now()
	got := allocated(func() { err = RestoreState(bytes.NewReader(hostile), dp, cp) })
	if took := time.Since(start); err == nil || got > 1<<20 || took > 100*time.Millisecond {
		t.Fatalf("err %v after %v and %d bytes allocated", err, took, got)
	}

	// And a header that claims the largest payload, then ends.
	head := frame.Enc{B: []byte(snapMagic)}
	head.U16(snapVersion)
	head.U64(1 << 31)
	got = allocated(func() { err = RestoreState(bytes.NewReader(head.B), dp, cp) })
	limit := uint64(frame.ReadChunk + 4096) // one read chunk
	if raceEnabled {
		limit *= 3 // the detector's build allocates the chunk's zeroes apart
	}
	if err == nil || got > limit {
		t.Fatalf("an 18-byte header: err %v, %d bytes allocated", err, got)
	}
}

// FuzzRestoreState feeds RestoreState arbitrary files and, reframed
// under a valid checksum, arbitrary payloads. It must never panic; a
// refusal must leave the pipeline as it was; an accepted snapshot must
// classify traffic and re-save to a file that restores and re-saves to
// itself.
func FuzzRestoreState(f *testing.F) {
	for i, c := range parentSnapshots {
		file, err := os.ReadFile(c.file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), false, file)
		f.Add(uint8(i), true, file[18:len(file)-4])
		f.Add(uint8(i), true, file[18:18+57])
	}
	f.Fuzz(func(t *testing.T, which uint8, reframe bool, data []byte) {
		i := int(which) % len(parentSnapshots)
		if reframe {
			data = snapFile(t, data)
		}
		dp, cp := freshFor(t, i)
		before, gen := saved(t, dp, cp), cp.ConfigGeneration()
		if err := RestoreState(bytes.NewReader(data), dp, cp); err != nil {
			if !bytes.Equal(saved(t, dp, cp), before) || cp.ConfigGeneration() != gen {
				t.Fatalf("a refused snapshot changed the pipeline (%v)", err)
			}
			return
		}
		first := saved(t, dp, cp)
		for j := range 64 {
			dp.Classify(mkPkt(j))
		}
		dp2, cp2 := freshFor(t, i)
		if err := RestoreState(bytes.NewReader(first), dp2, cp2); err != nil {
			t.Fatalf("the re-save of an accepted snapshot is refused: %v", err)
		}
		if !bytes.Equal(saved(t, dp2, cp2), first) {
			t.Fatal("the re-save of an accepted snapshot does not restore to itself")
		}
	})
}
