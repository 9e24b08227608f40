package victim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

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

// parentSnapshot is an ACCVICT1 file the parent commit wrote: two closed
// windows with destination 42 listed, a third window open.
const parentSnapshot = "testdata/parent_victims.snap"

// parentDetector builds the detector parentSnapshot restores into, with
// some state of its own that a refused restore must keep.
func parentDetector(t testing.TB) *Detector {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TopK = 4
	cfg.SketchCols = 64
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedWindow(d, rand.New(rand.NewSource(9)), map[uint64]uint64{7: 300_000}, 100_000)
	d.Advance()
	feedWindow(d, rand.New(rand.NewSource(10)), map[uint64]uint64{7: 50_000}, 10_000)
	return d
}

func marshaled(t testing.TB, d *Detector) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Marshal(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapFile frames payload as an ACCVICT1 file with a valid checksum.
func snapFile(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.WriteContainer(&buf, snapMagic, snapVersion, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParentSnapshotRestoresByteIdentically: a file written before the
// codecs were merged restores, lists its victim, and re-saves to the
// same bytes.
func TestParentSnapshotRestoresByteIdentically(t *testing.T) {
	want, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	d := parentDetector(t)
	if err := d.Unmarshal(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if v := d.Victims(); len(v) != 1 || v[0].Key != 42 || v[0].Windows != 2 || d.Windows() != 2 {
		t.Errorf("restored victims %+v after %d windows, want destination 42 listed for 2 of 2", v, d.Windows())
	}
	if !bytes.Equal(marshaled(t, d), want) {
		t.Error("restore and re-save changed the bytes")
	}
}

// sections walks an ACCVICT1 payload and returns where each of its four
// counts sits: sketch words, heap entries, listed keys, current victims.
func sections(t testing.TB, p []byte) [4]int {
	t.Helper()
	u32 := func(at int) int { return int(binary.LittleEndian.Uint32(p[at:])) }
	var at [4]int
	off := 3*4 + 2*8 // geometry, window counters
	at[0] = off
	off += 4 + 8*u32(off) + 8 // words, updates
	at[1] = off
	off += 4 + 16*u32(off) + 8 // entries, rng
	at[2] = off
	off += 4 + 12*u32(off)
	at[3] = off
	off += 4 + 28*u32(off)
	if off != len(p) {
		t.Fatalf("walked %d of %d payload bytes: the layout moved", off, len(p))
	}
	return at
}

// TestUnmarshalRefusesHostileCounts puts the largest count in each count
// position of a sound payload, reframed under a valid checksum: each
// must be refused with nothing sized from the count and the detector
// left as it was.
func TestUnmarshalRefusesHostileCounts(t *testing.T) {
	file, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	p := file[18 : len(file)-4]
	d := parentDetector(t)
	before := marshaled(t, d)
	for _, at := range sections(t, p) {
		bad := append([]byte(nil), p...)
		binary.LittleEndian.PutUint32(bad[at:], 1<<32-1)
		r := bytes.NewReader(snapFile(t, bad))
		var err error
		if got := allocated(func() { err = d.Unmarshal(r) }); got > 1<<20 {
			t.Errorf("count at byte %d: %d bytes allocated", at, got)
		}
		if err == nil {
			t.Errorf("count at byte %d: accepted", at)
		}
		if !bytes.Equal(marshaled(t, d), before) {
			t.Fatalf("count at byte %d: the refusal changed the detector", at)
		}
	}

	head := frame.Enc{B: []byte(snapMagic)}
	head.U16(snapVersion)
	head.U64(1 << 31)
	got := allocated(func() { err = d.Unmarshal(bytes.NewReader(head.B)) })
	if err == nil || got > 1<<20 {
		t.Fatalf("an 18-byte header: err %v, %d bytes allocated", err, got)
	}
}

// TestUnmarshalRefusalLeavesDetectorUntouched: a snapshot whose geometry
// matches but whose sketch section is a word short, whose heap holds
// more entries than TopK, or whose heap holds one key twice, is only
// found out after everything decoded. It used to overwrite the window
// counters first, and a repeated key used to be accepted and listed
// twice.
func TestUnmarshalRefusalLeavesDetectorUntouched(t *testing.T) {
	file, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	p := file[18 : len(file)-4]
	at := sections(t, p)
	le := binary.LittleEndian

	short := append([]byte(nil), p[:at[0]]...)
	short = le.AppendUint32(short, le.Uint32(p[at[0]:])-1)
	short = append(short, p[at[0]+4+8:]...) // drop the first word

	crowded := append([]byte(nil), p[:at[1]]...)
	crowded = le.AppendUint32(crowded, 5) // TopK is 4
	for i := 0; i < 5; i++ {
		crowded = le.AppendUint64(le.AppendUint64(crowded, uint64(100+i)), 1)
	}
	crowded = append(crowded, p[at[1]+4+16*int(le.Uint32(p[at[1]:])):]...)

	repeated := append([]byte(nil), p[:at[1]]...)
	repeated = le.AppendUint32(repeated, 2)
	for i := 0; i < 2; i++ {
		repeated = le.AppendUint64(le.AppendUint64(repeated, 7), 5000)
	}
	repeated = append(repeated, p[at[1]+4+16*int(le.Uint32(p[at[1]:])):]...)

	d := parentDetector(t)
	before := marshaled(t, d)
	for name, bad := range map[string][]byte{"short sketch": short, "crowded heap": crowded, "repeated key": repeated} {
		sections(t, bad) // still well-formed
		if err := d.Unmarshal(bytes.NewReader(snapFile(t, bad))); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !bytes.Equal(marshaled(t, d), before) {
			t.Fatalf("%s: the refusal changed the detector", name)
		}
	}
}

// TestSnapshotMidRun: a snapshot taken between two offers of one run
// of a tracked destination holds the whole run so far. Restored into a
// fresh detector, it carries on exactly as the detector fed the same
// stream without a save: the same bytes before every window closes and
// the same victims at every Advance.
func TestSnapshotMidRun(t *testing.T) {
	type obs struct{ k, b uint64 }
	r := rand.New(rand.NewSource(11))
	windows := make([][]obs, 4)
	for w := range windows {
		for len(windows[w]) < 3000 {
			if r.Intn(5) < 3 {
				for n := 1 + r.Intn(30); n > 0; n-- {
					windows[w] = append(windows[w], obs{42, 1500})
				}
			} else {
				windows[w] = append(windows[w], obs{0x10000 + r.Uint64()%5000, 512})
			}
		}
	}
	// The save point: inside window 1, between two offers of a run of 42.
	cut := len(windows[1]) / 2
	for windows[1][cut-1].k != 42 || windows[1][cut].k != 42 {
		cut++
	}

	whole, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	saved, _ := New(DefaultConfig())
	for w, win := range windows {
		for i, o := range win {
			if w == 1 && i == cut {
				fresh, _ := New(DefaultConfig())
				if err := fresh.Unmarshal(bytes.NewReader(marshaled(t, saved))); err != nil {
					t.Fatal(err)
				}
				saved = fresh
			}
			whole.Observe(o.k, o.b)
			saved.Observe(o.k, o.b)
		}
		if !bytes.Equal(marshaled(t, whole), marshaled(t, saved)) {
			t.Fatalf("window %d: the detector restored mid-run saves different bytes", w)
		}
		if a, b := whole.Advance(), saved.Advance(); !reflect.DeepEqual(a, b) || len(a) != 1 {
			t.Fatalf("window %d: victims %+v, restored mid-run %+v", w, a, b)
		}
	}
}

// FuzzVictimUnmarshal feeds Unmarshal arbitrary files and, reframed
// under a valid checksum, arbitrary payloads: never a panic, a refusal
// changes nothing, and an accepted snapshot re-saves to a file that
// restores and re-saves to itself.
func FuzzVictimUnmarshal(f *testing.F) {
	file, err := os.ReadFile(parentSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, file)
	f.Add(true, file[18:len(file)-4])
	f.Add(true, file[18:18+32])
	f.Fuzz(func(t *testing.T, reframe bool, data []byte) {
		if reframe {
			data = snapFile(t, data)
		}
		d := parentDetector(t)
		before := marshaled(t, d)
		if err := d.Unmarshal(bytes.NewReader(data)); err != nil {
			if !bytes.Equal(marshaled(t, d), before) {
				t.Fatalf("a refused snapshot changed the detector (%v)", err)
			}
			return
		}
		first := marshaled(t, d)
		d.Observe(42, 1500)
		d.Advance()
		d2 := parentDetector(t)
		if err := d2.Unmarshal(bytes.NewReader(first)); err != nil {
			t.Fatalf("the re-save of an accepted snapshot is refused: %v", err)
		}
		if !bytes.Equal(marshaled(t, d2), first) {
			t.Fatal("the re-save of an accepted snapshot does not restore to itself")
		}
	})
}
