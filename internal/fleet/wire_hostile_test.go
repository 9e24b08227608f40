package fleet

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"
)

// allocated reports the bytes f allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// parentFrames are one frame of each message type, written by the
// parent commit.
var parentFrames = map[uint8]string{
	MsgSnapshot:  "testdata/parent_snapshot.frame",
	MsgDeploy:    "testdata/parent_deploy.frame",
	MsgHello:     "testdata/parent_hello.frame",
	MsgHeartbeat: "testdata/parent_heartbeat.frame",
}

// recode decodes a frame as msgType and encodes the result again.
func recode(msgType uint8, data []byte) ([]byte, error) {
	switch msgType {
	case MsgSnapshot:
		s, err := DecodeSnapshot(data)
		if err != nil {
			return nil, err
		}
		return EncodeSnapshot(s), nil
	case MsgDeploy:
		dp, err := DecodeDeploy(data)
		if err != nil {
			return nil, err
		}
		return EncodeDeploy(dp), nil
	case MsgHello:
		node, err := DecodeHello(data)
		return EncodeHello(node), err
	default:
		node, err := decodeNode(data, MsgHeartbeat, "heartbeat")
		return EncodeHeartbeat(node), err
	}
}

// TestParentFramesRecodeByteIdentically: frames written before the
// codecs were merged decode, and encode again to the same bytes.
func TestParentFramesRecodeByteIdentically(t *testing.T) {
	for msgType, file := range parentFrames {
		want, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := VerifyFrame(want); err != nil || got != msgType {
			t.Errorf("%s: VerifyFrame = type %d, %v", file, got, err)
		}
		got, err := recode(msgType, want)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: decode and re-encode changed the bytes", file)
		}
		for other := range parentFrames {
			if _, err := recode(other, want); other != msgType && err == nil {
				t.Errorf("%s decoded as message type %d", file, other)
			}
		}
	}
	s, err := DecodeSnapshot(mustRead(t, parentFrames[MsgSnapshot]))
	if err != nil || s.Node != 3 || s.Seq != 991 || len(s.Infos) != 4 || len(s.Infos[3].Ranges) != 4 {
		t.Errorf("parent snapshot decoded to %+v, %v", s, err)
	}
	dp, err := DecodeDeploy(mustRead(t, parentFrames[MsgDeploy]))
	if err != nil || dp.Epoch != 77 || len(dp.QueueOf) != 4 || dp.QueueOf[0] != 3 || dp.Rank[1] != 12.25 {
		t.Errorf("parent deploy decoded to %+v, %v", dp, err)
	}
}

func mustRead(t testing.TB, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// seal wraps an arbitrary payload in a valid envelope, the way the
// encoders do for the payloads they build in place.
func seal(msgType uint8, payload []byte) []byte {
	e := begin(msgType, len(payload))
	e.Raw(payload)
	return finish(e)
}

// TestDecodeRefusesHostileCounts puts the largest count in every count
// position of a sound MsgSnapshot and MsgDeploy payload and seals it
// under a valid CRC — what a peer past the hello handshake can send.
// Each must be refused with nothing sized from the count. At the parent
// commit the snapshot's inner counts were unchecked.
func TestDecodeRefusesHostileCounts(t *testing.T) {
	le := binary.LittleEndian
	body := func(file string) []byte {
		data := mustRead(t, file)
		return data[frameOverhead-4 : len(data)-4]
	}

	snap := body(parentFrames[MsgSnapshot])
	off := 4 + 8 + 8 // node, seq, time
	snapCounts := []int{off}
	infos := int(le.Uint32(snap[off:]))
	off += 4
	for i := 0; i < infos; i++ {
		off += 5
		snapCounts = append(snapCounts, off)
		off += 4 + 8*int(le.Uint32(snap[off:]))
		snapCounts = append(snapCounts, off)
		off += 4 + 4*int(le.Uint32(snap[off:]))
		off += 6 * 8
	}
	if off != len(snap) {
		t.Fatalf("walked %d of %d snapshot payload bytes: the layout moved", off, len(snap))
	}

	deploy := body(parentFrames[MsgDeploy])
	queues := 8 + 8 // epoch, time
	ranks := queues + 4 + 4*int(le.Uint32(deploy[queues:]))
	if end := ranks + 4 + 8*int(le.Uint32(deploy[ranks:])); end != len(deploy) {
		t.Fatalf("walked %d of %d deploy payload bytes: the layout moved", end, len(deploy))
	}

	for _, c := range []struct {
		msgType uint8
		payload []byte
		counts  []int
	}{
		{MsgSnapshot, snap, snapCounts},
		{MsgDeploy, deploy, []int{queues, ranks}},
	} {
		for _, at := range c.counts {
			bad := append([]byte(nil), c.payload...)
			le.PutUint32(bad[at:], 1<<32-1)
			sealed := seal(c.msgType, bad)
			var err error
			if got := allocated(func() { _, err = recode(c.msgType, sealed) }); got > 1<<20 {
				t.Errorf("type %d, count at byte %d: %d bytes allocated", c.msgType, at, got)
			}
			if err == nil {
				t.Errorf("type %d, count at byte %d: accepted", c.msgType, at)
			}
		}
	}
}

// FuzzDecodeFleetMessage runs all four decoders over arbitrary frames
// and, sealed under a valid CRC, arbitrary payloads: never a panic, and
// whatever a decoder accepts encodes to a frame that decodes to the
// same.
func FuzzDecodeFleetMessage(f *testing.F) {
	for msgType, file := range parentFrames {
		data := mustRead(f, file)
		f.Add(msgType, false, data)
		f.Add(msgType, true, data[frameOverhead-4:len(data)-4])
	}
	f.Fuzz(func(t *testing.T, msgType uint8, reseal bool, data []byte) {
		if reseal {
			data = seal(msgType, data)
		}
		for _, as := range []uint8{MsgSnapshot, MsgDeploy, MsgHello, MsgHeartbeat} {
			first, err := recode(as, data)
			if err != nil {
				continue
			}
			if got, err := VerifyFrame(data); err != nil || got != as {
				t.Fatalf("decoded as type %d a frame VerifyFrame calls type %d, %v", as, got, err)
			}
			if len(first) != len(data) {
				t.Fatalf("a %d-byte frame re-encodes to %d bytes", len(data), len(first))
			}
			second, err := recode(as, first)
			if err != nil || !bytes.Equal(second, first) {
				t.Fatalf("type %d: the re-encoding is not a fixed point (%v)", as, err)
			}
		}
	})
}
