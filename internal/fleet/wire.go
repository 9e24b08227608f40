// Package fleet runs ACC-Turbo at many vantage points with one global
// ranking across the fleet. Each node's control loop — unchanged except
// for the core.Ranker seam — publishes its per-window cluster snapshot
// to a coordinator; the coordinator merges the snapshots slot-wise
// (cluster.MergeSnapshots) and broadcasts one cluster→queue mapping
// back, so an aggregate whose sources are spread across nodes is ranked
// by its *fleet-wide* rate, which is the case single-node clustering
// provably misranks. A node cut off from the coordinator falls back to
// ranking its own snapshot locally (never to undefended FIFO) and
// reports the degradation through Health until fleet deploys resume.
//
// The layers, bottom up:
//
//   - wire.go: the framed message codec. Length-prefixed, CRC-checked,
//     versioned and self-delimiting, so the same frames cross an
//     in-process transport whole and a TCP connection as a byte stream.
//     Fields are written and read with internal/frame, the tree's one
//     codec; only the envelope's layout is this package's own.
//   - transport.go, tcp.go: the NodeLink/CoordinatorLink seam and its
//     two backends — SimTransport (eventsim-scheduled, deterministic,
//     partitionable) and the TCP pair ListenTCP/DialTCP (real sockets,
//     in one process over loopback or across hosts, with chaos.go's
//     fault-injecting proxy for tests).
//   - coordinator.go: merges the latest snapshot from every node and
//     broadcasts the global ranking, epoch-stamped.
//   - node.go: the core.Ranker that publishes snapshots, applies fleet
//     deployments, and degrades to local ranking past a staleness
//     bound — PR 5's fail-open machinery generalized to "coordinator
//     unreachable".
package fleet

import (
	"fmt"
	"hash/crc32"
	"io"

	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
	"accturbo/internal/frame"
)

// Frame layout, little-endian throughout:
//
//	"ACCFLEET" | version u16 | type u8 | payloadLen u32 | payload | crc32 u32
//
// The CRC (IEEE) covers magic through payload, so a flipped type or
// length byte is caught, not just payload corruption. payloadLen makes
// the format self-delimiting on a byte stream: ReadFrame/WriteFrame
// speak it over any io.Reader/Writer, which is how the TCP backend
// carries the frames the in-process backends move whole.
const (
	wireMagic   = "ACCFLEET"
	wireVersion = 1

	// headerLen is the envelope before the payload; frameOverhead is
	// every byte that isn't payload.
	headerLen     = len(wireMagic) + 2 + 1 + 4
	frameOverhead = headerLen + 4

	// maxFramePayload bounds what ReadFrame will buffer: generous for
	// any real snapshot (a 4096-slot snapshot with 16 features is under
	// 1 MiB) while refusing a corrupt length prefix asking for 4 GiB.
	maxFramePayload = 16 << 20
)

// Message types.
const (
	// MsgSnapshot is a node→coordinator cluster snapshot.
	MsgSnapshot uint8 = 1
	// MsgDeploy is a coordinator→node global ranking deployment.
	MsgDeploy uint8 = 2
	// MsgHello is the first frame on a node→coordinator TCP connection:
	// it names the node id the connection speaks for (SimTransport's
	// handshake is the HandleNode registration).
	MsgHello uint8 = 3
	// MsgHeartbeat is the idle-link liveness frame, sent in both
	// directions by the TCP transport; it carries the sender's node id
	// (0 for the coordinator) and feeds the receiver's last-seen clock.
	MsgHeartbeat uint8 = 4
)

// Snapshot is one node's per-window cluster view, as published to the
// coordinator each poll.
type Snapshot struct {
	// Node identifies the publishing vantage point.
	Node uint32
	// Seq increases by one per publish from this node; the coordinator
	// drops reordered duplicates.
	Seq uint64
	// At is the node-local poll time the snapshot was taken.
	At eventsim.Time
	// Infos is the polled (and reset) window snapshot — slot-aligned
	// across nodes when every node runs the same SliceInit tiling.
	Infos []cluster.Info
}

// Deploy is the coordinator's broadcast: one global cluster→queue
// mapping for every node.
type Deploy struct {
	// Epoch increases by one per broadcast; nodes apply only newer
	// epochs, so a delayed duplicate cannot roll a mapping back.
	Epoch uint64
	// At is the coordinator-local time the ranking was computed.
	At eventsim.Time
	// QueueOf maps cluster slot → priority queue, len = the fleet's
	// slot count.
	QueueOf []int
	// Rank is the merged rank metric per slot that produced QueueOf,
	// carried for node-side interpretability (Decision.Rank).
	Rank []float64
}

// begin starts a frame of msgType in one buffer with room for a payload
// of n bytes (more is fine, the buffer grows): the envelope up to the
// length field, which finish fills in once the payload has been appended.
func begin(msgType uint8, n int) frame.Enc {
	e := frame.Enc{B: make([]byte, 0, frameOverhead+n)}
	e.B = append(e.B, wireMagic...)
	e.U16(wireVersion)
	e.U8(msgType)
	e.U32(0)
	return e
}

// finish closes a frame begun with begin: the payload length goes into
// the header and the CRC over everything before it goes on the end.
func finish(e frame.Enc) []byte {
	e.PutU32(headerLen-4, uint32(len(e.B)-headerLen))
	e.U32(crc32.ChecksumIEEE(e.B))
	return e.B
}

// unframe validates the envelope and returns (type, payload). The
// payload aliases data; decode before the buffer is reused.
func unframe(data []byte) (uint8, []byte, error) {
	if len(data) < frameOverhead {
		return 0, nil, fmt.Errorf("fleet: frame of %d bytes is shorter than the %d-byte envelope", len(data), frameOverhead)
	}
	if string(data[:len(wireMagic)]) != wireMagic {
		return 0, nil, fmt.Errorf("fleet: bad magic %q", data[:len(wireMagic)])
	}
	body := data[:len(data)-4]
	tail := frame.NewDec(data[len(data)-4:])
	if got, sum := crc32.ChecksumIEEE(body), tail.U32(); got != sum {
		return 0, nil, fmt.Errorf("fleet: frame checksum %08x != stored %08x", got, sum)
	}
	d := frame.NewDec(body[len(wireMagic):])
	if v := d.U16(); v != wireVersion {
		return 0, nil, fmt.Errorf("fleet: frame version %d, this build speaks %d", v, wireVersion)
	}
	msgType := d.U8()
	payload := d.Bytes(int(d.U32()))
	if err := d.Done(); err != nil {
		return 0, nil, fmt.Errorf("fleet: payload length does not match the frame: %w", err)
	}
	return msgType, payload, nil
}

// payloadOf unframes data, requires the message type want (named name in
// the error) and returns a decoder over the payload.
func payloadOf(data []byte, want uint8, name string) (frame.Dec, error) {
	msgType, payload, err := unframe(data)
	if err == nil && msgType != want {
		err = fmt.Errorf("fleet: message type %d, want %s (%d)", msgType, name, want)
	}
	return frame.NewDec(payload), err
}

// EncodeSnapshot frames a node snapshot for the wire.
func EncodeSnapshot(s *Snapshot) []byte {
	e := begin(MsgSnapshot, 4+8+8+cluster.InfosLen(s.Infos))
	e.U32(s.Node)
	e.U64(s.Seq)
	e.U64(uint64(s.At))
	cluster.AppendInfos(&e, s.Infos)
	return finish(e)
}

// DecodeSnapshot unframes and decodes a MsgSnapshot frame.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	d, err := payloadOf(data, MsgSnapshot, "snapshot")
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		Node:  d.U32(),
		Seq:   d.U64(),
		At:    eventsim.Time(d.U64()),
		Infos: cluster.ReadInfos(&d),
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("fleet: snapshot: %w", err)
	}
	return s, nil
}

// EncodeDeploy frames a global deployment for broadcast.
func EncodeDeploy(dp *Deploy) []byte {
	e := begin(MsgDeploy, 8+8+4+4*len(dp.QueueOf)+4+8*len(dp.Rank))
	e.U64(dp.Epoch)
	e.U64(uint64(dp.At))
	e.Ints(dp.QueueOf)
	e.F64s(dp.Rank)
	return finish(e)
}

// DecodeDeploy unframes and decodes a MsgDeploy frame.
func DecodeDeploy(data []byte) (*Deploy, error) {
	d, err := payloadOf(data, MsgDeploy, "deploy")
	if err != nil {
		return nil, err
	}
	dp := &Deploy{
		Epoch:   d.U64(),
		At:      eventsim.Time(d.U64()),
		QueueOf: d.Ints(),
		Rank:    d.F64s(),
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("fleet: deploy: %w", err)
	}
	return dp, nil
}

// encodeNode frames the one-field messages, whose payload is a node id.
func encodeNode(msgType uint8, node uint32) []byte {
	e := begin(msgType, 4)
	e.U32(node)
	return finish(e)
}

// decodeNode is encodeNode's inverse.
func decodeNode(data []byte, want uint8, name string) (uint32, error) {
	d, err := payloadOf(data, want, name)
	if err != nil {
		return 0, err
	}
	node := d.U32()
	if err := d.Done(); err != nil {
		return 0, fmt.Errorf("fleet: %s: %w", name, err)
	}
	return node, nil
}

// EncodeHello frames a connection handshake for node id.
func EncodeHello(node uint32) []byte { return encodeNode(MsgHello, node) }

// DecodeHello unframes and decodes a MsgHello frame.
func DecodeHello(data []byte) (uint32, error) { return decodeNode(data, MsgHello, "hello") }

// EncodeHeartbeat frames a liveness beacon from node id (0 = the
// coordinator).
func EncodeHeartbeat(node uint32) []byte { return encodeNode(MsgHeartbeat, node) }

// DecodeHeartbeat unframes and decodes a MsgHeartbeat frame.
func DecodeHeartbeat(data []byte) (uint32, error) {
	return decodeNode(data, MsgHeartbeat, "heartbeat")
}

// VerifyFrame validates a frame's envelope — magic, version, length and
// CRC — and returns its message type without decoding the payload. The
// TCP transport runs it on every received frame before dispatch: a
// corrupt frame resets the connection rather than reaching a handler.
func VerifyFrame(data []byte) (uint8, error) {
	msgType, _, err := unframe(data)
	return msgType, err
}

// WriteFrame writes one already-encoded frame to a byte stream. Frames
// are self-delimiting, so consecutive WriteFrame calls need no other
// separator — this is the socket-backend contract.
func WriteFrame(w io.Writer, b []byte) error {
	_, err := w.Write(b)
	return err
}

// ReadFrame reads exactly one frame from a byte stream: envelope first
// (fixed size up to the length field), then the payload and CRC. The
// returned bytes pass straight to DecodeSnapshot/DecodeDeploy. io.EOF
// at a frame boundary is returned as-is; a partial frame is an
// ErrUnexpectedEOF.
//
// The envelope is validated before any payload allocation: bad magic, a
// foreign version, and a payload length over maxFramePayload are all
// rejected from the 15 header bytes alone, and the rest then arrives
// through frame.ReadN, a chunk at a time as bytes are delivered — a
// corrupted or hostile length prefix cannot OOM the reader.
func ReadFrame(r io.Reader) ([]byte, error) {
	head := make([]byte, headerLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	if string(head[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("fleet: bad magic %q on stream", head[:len(wireMagic)])
	}
	d := frame.NewDec(head[len(wireMagic):])
	if v := d.U16(); v != wireVersion {
		return nil, fmt.Errorf("fleet: stream speaks frame version %d, this build speaks %d", v, wireVersion)
	}
	d.U8() // the type is the decoders' business
	plen := int(d.U32())
	if plen > maxFramePayload {
		return nil, fmt.Errorf("fleet: frame payload %d exceeds the %d limit", plen, maxFramePayload)
	}
	return frame.ReadN(r, head, plen+4)
}
