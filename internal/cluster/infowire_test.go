package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"

	"accturbo/internal/frame"
)

// MarshalInfos is AppendInfos into a fresh buffer.
func MarshalInfos(infos []Info) []byte {
	var e frame.Enc
	AppendInfos(&e, infos)
	return e.B
}

// UnmarshalInfos is ReadInfos over a whole buffer: truncation, a count
// the buffer cannot hold and trailing bytes all fail with an error and
// no partial result.
func UnmarshalInfos(data []byte) ([]Info, error) {
	d := frame.NewDec(data)
	infos := ReadInfos(&d)
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("cluster: info snapshot: %w", err)
	}
	return infos, nil
}

// allocated reports the bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// parentInfoSection is the Info section of the MsgSnapshot frame the
// parent commit wrote for the fleet's fixture: past the 15-byte envelope
// header and the snapshot's node, seq and time, up to the CRC.
func parentInfoSection(t testing.TB) []byte {
	frame, err := os.ReadFile("../fleet/testdata/parent_snapshot.frame")
	if err != nil {
		t.Fatal(err)
	}
	return frame[15+20 : len(frame)-4]
}

// TestInfoWireParentBytes: a section the parent commit wrote decodes and
// re-encodes to the same bytes.
func TestInfoWireParentBytes(t *testing.T) {
	want := parentInfoSection(t)
	infos, err := UnmarshalInfos(want)
	if err != nil || len(infos) != 4 {
		t.Fatalf("decoded %d infos, %v", len(infos), err)
	}
	if !bytes.Equal(MarshalInfos(infos), want) {
		t.Fatal("decode and re-encode changed the bytes")
	}
}

// TestInfoWireRejectsHostileCounts puts the largest count in every count
// position of a sound stream — the slot count, each slot's range count
// and cardinality count. UnmarshalInfos is reachable from any TCP peer
// past the hello handshake, inside a CRC-valid frame; it must refuse
// each without sizing anything from the count.
func TestInfoWireRejectsHostileCounts(t *testing.T) {
	blob := MarshalInfos(sampleInfos())
	le := binary.LittleEndian
	counts := []int{0}
	off := 4
	for range sampleInfos() {
		off += 5 // ID, Active
		counts = append(counts, off)
		off += 4 + 8*int(le.Uint32(blob[off:]))
		counts = append(counts, off)
		off += 4 + 4*int(le.Uint32(blob[off:]))
		off += 5*8 + 8 // counters, Size
	}
	if off != len(blob) {
		t.Fatalf("walked %d of %d bytes: the layout moved", off, len(blob))
	}
	for _, at := range counts {
		for _, n := range []uint32{1<<32 - 1, 1 << 27, uint32(len(blob))} {
			bad := append([]byte(nil), blob...)
			le.PutUint32(bad[at:], n)
			var infos []Info
			var err error
			if got := allocated(func() { infos, err = UnmarshalInfos(bad) }); got > 1<<20 {
				t.Errorf("count %d at byte %d: %d bytes allocated", n, at, got)
			}
			if err == nil || infos != nil {
				t.Errorf("count %d at byte %d: decoded %d infos, %v", n, at, len(infos), err)
			}
		}
	}
}

// TestInfoWireSlabs pins ReadInfos' allocation shape. A uniform snapshot
// costs three allocations (the slots and one slab each for ranges and
// cardinalities) and its slots do not alias: appending to one slot's
// ranges leaves the next slot's alone. A sound section whose feature
// count grows slot by slot, so that no slab ever fits the next slot, is
// not charged a fresh slab per slot.
func TestInfoWireSlabs(t *testing.T) {
	blob := MarshalInfos(sampleInfos())
	if got := testing.AllocsPerRun(100, func() { UnmarshalInfos(blob) }); got > 3 {
		t.Errorf("a uniform snapshot decodes in %v allocations, want <= 3", got)
	}
	infos, err := UnmarshalInfos(blob)
	if err != nil {
		t.Fatal(err)
	}
	next := append([]Range(nil), infos[1].Ranges...)
	_ = append(infos[0].Ranges, Range{Min: 1, Max: 2})
	if !reflect.DeepEqual(infos[1].Ranges, next) {
		t.Fatal("an append to slot 0's ranges wrote into slot 1's")
	}

	growing := make([]Info, 400)
	for i := range growing {
		growing[i] = Info{ID: i, Ranges: make([]Range, i+1), NominalCardinality: make([]int, i+1)}
	}
	blob = MarshalInfos(growing)
	var got []Info
	if n := allocated(func() { got, err = UnmarshalInfos(blob) }); n > 4*uint64(len(blob)) {
		t.Errorf("%d bytes of growing feature counts allocated %d", len(blob), n)
	}
	if err != nil || !reflect.DeepEqual(got, growing) {
		t.Fatalf("growing feature counts did not round-trip (%v)", err)
	}
}

// FuzzUnmarshalInfos: arbitrary bytes are refused or decode to a
// snapshot that holds no more elements than the input has bytes and
// whose encoding is a fixed point; never a panic.
func FuzzUnmarshalInfos(f *testing.F) {
	f.Add(parentInfoSection(f))
	f.Add(MarshalInfos(sampleInfos()))
	f.Add(MarshalInfos(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		infos, err := UnmarshalInfos(data)
		if err != nil {
			if infos != nil {
				t.Fatal("an error came with a partial result")
			}
			return
		}
		held := len(infos)
		for _, in := range infos {
			held += len(in.Ranges) + len(in.NominalCardinality)
		}
		if held > len(data) {
			t.Fatalf("%d bytes decoded to %d elements", len(data), held)
		}
		// Only the Active byte has spare encodings, so the re-encoding is
		// as long as the input and decodes to itself.
		again := MarshalInfos(infos)
		if len(again) != len(data) {
			t.Fatalf("%d bytes re-encode to %d", len(data), len(again))
		}
		back, err := UnmarshalInfos(again)
		if err != nil || !bytes.Equal(MarshalInfos(back), again) {
			t.Fatalf("the re-encoding is not a fixed point (%v)", err)
		}
	})
}

func sampleInfos() []Info {
	return []Info{
		{
			ID: 0, Active: true,
			Ranges:             []Range{{Min: 0, Max: 63}, {Min: 0, Max: 65535}, {Min: 0, Max: 0}},
			NominalCardinality: []int{0, 0, 7},
			Packets:            123, Bytes: 45678, TotalPackets: 999,
			Benign: 100, Malicious: 23, Size: 65599,
		},
		{ID: 1, Active: false, Ranges: []Range{{}, {}, {}}, NominalCardinality: []int{0, 0, 0}},
		{
			ID: 3, Active: true,
			Ranges:             []Range{{Min: 192, Max: 255}, {Min: 7000, Max: 7003}, {Min: 0, Max: 0}},
			NominalCardinality: []int{0, 0, 1},
			Packets:            1 << 40, Bytes: 1 << 50, TotalPackets: 1 << 41,
			Benign: 0, Malicious: 1 << 40, Size: 66.5,
		},
	}
}

// TestInfoWireRoundTrip pins the fleet wire form: marshal → unmarshal
// must reproduce the snapshot exactly (including inactive slots and
// non-contiguous IDs), and marshal must be deterministic.
func TestInfoWireRoundTrip(t *testing.T) {
	infos := sampleInfos()
	blob := MarshalInfos(infos)
	if string(blob) != string(MarshalInfos(infos)) {
		t.Fatal("MarshalInfos is not deterministic")
	}
	got, err := UnmarshalInfos(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, infos) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, infos)
	}
}

// TestInfoWireRoundTripEmpty: an empty snapshot (a node with no traffic
// yet) is a legal 4-byte message.
func TestInfoWireRoundTripEmpty(t *testing.T) {
	blob := MarshalInfos(nil)
	got, err := UnmarshalInfos(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d infos from empty snapshot", len(got))
	}
}

// TestInfoWireRejectsCorruption: truncation at every byte boundary,
// trailing bytes, and hostile slot counts all fail without a partial
// result.
func TestInfoWireRejectsCorruption(t *testing.T) {
	blob := MarshalInfos(sampleInfos())
	for cut := 0; cut < len(blob); cut++ {
		if _, err := UnmarshalInfos(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	if _, err := UnmarshalInfos(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
	// A count far beyond what the payload can hold must fail fast, not
	// allocate.
	hostile := []byte{0xff, 0xff, 0xff, 0x7f}
	if _, err := UnmarshalInfos(hostile); err == nil {
		t.Fatal("hostile count not rejected")
	}
}

// TestInfoWireMergesLikeOriginal: the decoded snapshot must be
// indistinguishable from the original to MergeSnapshots — the exact
// path the fleet coordinator runs.
func TestInfoWireMergesLikeOriginal(t *testing.T) {
	a := sampleInfos()
	b := []Info{{
		ID: 3, Active: true,
		Ranges:             []Range{{Min: 200, Max: 210}, {Min: 7000, Max: 7000}, {Min: 0, Max: 0}},
		NominalCardinality: []int{0, 0, 2},
		Packets:            5, Bytes: 5000, TotalPackets: 5, Malicious: 5, Size: 11,
	}}
	direct := MergeSnapshots(Manhattan, a, b)
	da, err := UnmarshalInfos(MarshalInfos(a))
	if err != nil {
		t.Fatal(err)
	}
	db, err := UnmarshalInfos(MarshalInfos(b))
	if err != nil {
		t.Fatal(err)
	}
	wired := MergeSnapshots(Manhattan, da, db)
	if !reflect.DeepEqual(direct, wired) {
		t.Fatalf("merge over the wire diverged:\n got %+v\nwant %+v", wired, direct)
	}
}
