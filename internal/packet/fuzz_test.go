package packet

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzUnmarshal checks that arbitrary bytes never panic the parser and
// that anything parsed re-marshals without error.
func FuzzUnmarshal(f *testing.F) {
	p := &Packet{
		SrcIP: V4(10, 0, 1, 2), DstIP: V4(192, 168, 3, 4),
		Length: 64, TTL: 64, Protocol: ProtoUDP, SrcPort: 123, DstPort: 456,
	}
	wire, _ := marshal(p)
	f.Add(wire)
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Unmarshal(data)
		if err != nil {
			return
		}
		if _, err := marshal(q); err != nil {
			t.Fatalf("parsed packet failed to marshal: %v (%+v)", err, q)
		}
	})
}

// FuzzDecodeFeatures is the differential fuzzer gating the fused fast
// path: on every input — valid frames, truncated headers, non-TCP/UDP
// protocols, garbage — ParseFrame+Features must agree with
// Unmarshal+Extract bit for bit, or reject exactly when the reference rejects (same
// sentinel category). The flow hash and the remaining FrameView
// accessors ride along under the same oracle.
func FuzzDecodeFeatures(f *testing.F) {
	seed := &Packet{
		SrcIP: V4(10, 0, 1, 2), DstIP: V4(192, 168, 3, 4),
		Length: 64, TTL: 64, Protocol: ProtoTCP, SrcPort: 443, DstPort: 51515,
	}
	wire, _ := marshal(seed)
	f.Add(wire)
	f.Add([]byte{})
	f.Add([]byte{0x45})
	f.Add(bytes.Repeat([]byte{0x45}, 21)) // bogus total length
	icmp := make([]byte, 20)
	icmp[0] = 0x45
	icmp[2], icmp[3] = 0, 20
	icmp[9] = byte(ProtoICMP)
	f.Add(icmp)
	sets := featureSetsUnderTest()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, refErr := Unmarshal(data)
		v, fusedErr := ParseFrame(data)
		if (refErr == nil) != (fusedErr == nil) {
			t.Fatalf("acceptance diverged: reference %v, fused %v (input %x)", refErr, fusedErr, data)
		}
		if refErr != nil {
			for _, sentinel := range []error{ErrTooShort, ErrBadVersion, ErrBadLength} {
				if errors.Is(refErr, sentinel) != errors.Is(fusedErr, sentinel) {
					t.Fatalf("rejection category diverged on %v: reference %v, fused %v", sentinel, refErr, fusedErr)
				}
			}
			return
		}
		if v.Length() != p.Length || Proto(v.b[9]) != p.Protocol ||
			v.sport != p.SrcPort || v.dport != p.DstPort {
			t.Fatalf("accessors diverged: view (%d,%v,%d,%d) vs packet (%d,%v,%d,%d)",
				v.Length(), Proto(v.b[9]), v.sport, v.dport,
				p.Length, p.Protocol, p.SrcPort, p.DstPort)
		}
		if v.FlowHash() != FlowHash(p) {
			t.Fatalf("flow hash diverged: %#x vs %#x", v.FlowHash(), FlowHash(p))
		}
		var dst [NumFeatures]uint32
		for _, fs := range sets {
			want := fs.Extract(p, nil)
			got := v.Features(fs, dst[:])
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("feature %v diverged: fused %d, reference %d", fs[i], got[i], want[i])
				}
			}
		}
	})
}
