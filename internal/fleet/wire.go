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
//     versioned and self-delimiting, so frames cross any byte stream.
//     Fields are written and read with internal/frame, the tree's one
//     codec; only the envelope's layout is this package's own.
//   - proto.go: the protocol, once — reassembly and verification of the
//     received stream, the hello handshake, heartbeats and the silence
//     shed, the CRC reset, and the node's seeded redial backoff — as a
//     state machine per end with no goroutine, socket, lock or clock.
//   - transport.go: the seam, the NodeEnd and CoordinatorEnd that run
//     the machines for both carriers: tcp.go's
//     socket pumps (with chaos.go's fault-injecting proxy) and
//     simlink.go's deterministic simulated byte link.
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
// the format self-delimiting on a byte stream: proto.go's reassembler
// cuts frames back out of whatever chunks a carrier reads.
const (
	wireMagic   = "ACCFLEET"
	wireVersion = 1

	// headerLen is the envelope before the payload; frameOverhead is
	// every byte that isn't payload.
	headerLen     = len(wireMagic) + 2 + 1 + 4
	frameOverhead = headerLen + 4

	// maxFramePayload bounds what the reassembler will buffer: generous for
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
	// MsgHello is the first frame on every node→coordinator connection,
	// on either carrier: it names the node id the connection speaks for.
	MsgHello uint8 = 3
	// MsgHeartbeat is the idle-link liveness frame, sent in both
	// directions every beat; it carries the sender's node id
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

// unframe validates the envelope — the header as the reassembler reads
// it, the length, the CRC — and returns (type, payload). The payload
// aliases data; decode before the buffer is reused.
func unframe(data []byte) (uint8, []byte, error) {
	n, err := frameLen(data)
	if err == nil && (n == 0 || n != len(data)) {
		err = fmt.Errorf("fleet: a %d-byte frame whose header says %d", len(data), n)
	}
	if err != nil {
		return 0, nil, err
	}
	tail := frame.NewDec(data[n-4:])
	if got, sum := crc32.ChecksumIEEE(data[:n-4]), tail.U32(); got != sum {
		return 0, nil, fmt.Errorf("fleet: frame checksum %08x != stored %08x", got, sum)
	}
	return msgType(data), data[headerLen : n-4], nil
}

// msgType is the message type in the header of the frame data starts.
func msgType(data []byte) uint8 { return data[len(wireMagic)+2] }

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
	return readSnapshot(d)
}

// verified is the payload of a frame the protocol has already verified
// (conn.read) and typed (proto.recv): a handler decodes it without
// checking the CRC a second time.
func verified(f []byte) frame.Dec { return frame.NewDec(f[headerLen : len(f)-4]) }

// readSnapshot decodes a MsgSnapshot payload.
func readSnapshot(d frame.Dec) (*Snapshot, error) {
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
	return readDeploy(d)
}

// readDeploy decodes a MsgDeploy payload.
func readDeploy(d frame.Dec) (*Deploy, error) {
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

// VerifyFrame validates a frame's envelope — magic, version, length and
// CRC — and returns its message type without decoding the payload. The
// protocol runs it on every received frame before dispatch: a corrupt
// frame resets the connection rather than reaching a handler.
func VerifyFrame(data []byte) (uint8, error) {
	msgType, _, err := unframe(data)
	return msgType, err
}
