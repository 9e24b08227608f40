package fleet

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame is the stream reader's hardening gate, on the
// protocol's reassembler: for arbitrary bytes it must never panic, hold
// only bytes it was given, and return only frames the length prefixes
// delimit — whole, within the frame-size limit, back to back from the
// start of the stream — no matter what a length prefix claims. A frame
// that passes VerifyFrame reassembles alone to the same bytes, which
// pins the framing as self-delimiting.
func FuzzReadFrame(f *testing.F) {
	f.Add(EncodeHello(1))
	f.Add(EncodeHeartbeat(0))
	f.Add(EncodeSnapshot(&Snapshot{Node: 3, Seq: 9, Infos: slotInfos(100, 200)}))
	f.Add(EncodeDeploy(&Deploy{Epoch: 4, QueueOf: []int{1, 0}, Rank: []float64{2, 8}}))
	damaged := EncodeHello(2)
	damaged[len(damaged)-1] ^= 0x01
	f.Add(damaged)
	truncated := EncodeHeartbeat(5)
	f.Add(truncated[:len(truncated)-3])
	hostile := make([]byte, 0, frameOverhead-4)
	hostile = append(hostile, wireMagic...)
	hostile = binary.LittleEndian.AppendUint16(hostile, wireVersion)
	hostile = append(hostile, MsgSnapshot)
	hostile = binary.LittleEndian.AppendUint32(hostile, 0xffffffff)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		var r reassembler
		frames, err := r.feed(data, nil)
		off := 0
		for _, frame := range frames {
			if len(frame) > frameOverhead+maxFramePayload {
				t.Fatalf("a %d-byte frame, above the %d frame limit", len(frame), frameOverhead+maxFramePayload)
			}
			if n, _ := frameLen(frame); n != len(frame) || !bytes.Equal(frame, data[off:off+n]) {
				t.Fatalf("frame at %d is not the %d bytes its header delimits", off, n)
			}
			off += len(frame)
		}
		if len(r.buf) > len(data)-off || err == nil && off+len(r.buf) != len(data) {
			t.Fatalf("%d bytes in, %d framed, %d held (err %v)", len(data), off, len(r.buf), err)
		}
		for _, frame := range frames {
			if _, err := VerifyFrame(frame); err != nil {
				continue
			}
			var again reassembler
			if got, err := again.feed(frame, nil); err != nil || len(got) != 1 || !bytes.Equal(got[0], frame) {
				t.Fatal("verified frame did not reassemble bit-identically")
			}
		}
	})
}
