package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"accturbo/internal/cluster"
	"accturbo/internal/core"
	"accturbo/internal/eventsim"
)

func testInfos() []cluster.Info {
	return []cluster.Info{
		{
			ID: 0, Active: true,
			Ranges:             []cluster.Range{{Min: 0, Max: 63}, {Min: 5, Max: 9}},
			NominalCardinality: []int{0, 0},
			Packets:            12, Bytes: 1200, TotalPackets: 40, Benign: 10, Malicious: 2,
			Size: 67,
		},
		{
			ID: 1, Active: true,
			Ranges:             []cluster.Range{{Min: 64, Max: 127}, {Min: 0, Max: 65535}},
			NominalCardinality: []int{0, 3},
			Packets:            99, Bytes: 99000, TotalPackets: 990,
			Size: 65601,
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := &Snapshot{Node: 7, Seq: 42, At: 1_500_000_000, Infos: testInfos()}
	got, err := DecodeSnapshot(EncodeSnapshot(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, in)
	}
	// Empty snapshots (idle node) must survive too.
	empty := &Snapshot{Node: 1, Seq: 1, At: 5}
	got, err = DecodeSnapshot(EncodeSnapshot(empty))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if got.Node != 1 || got.Seq != 1 || len(got.Infos) != 0 {
		t.Fatalf("empty round trip: %+v", got)
	}
}

func TestDeployRoundTrip(t *testing.T) {
	in := &Deploy{
		Epoch:   9,
		At:      2_250_000_000,
		QueueOf: []int{0, 3, 1, 7},
		Rank:    []float64{0, 1.5, -2.25, 99000},
	}
	got, err := DecodeDeploy(EncodeDeploy(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, in)
	}
}

// TestWireRejectsCorruption flips every byte of both message kinds and
// truncates at every length: the CRC (or a structural check) must catch
// all of it — silent acceptance of a corrupt frame is the one failure a
// distributed defense cannot have.
func TestWireRejectsCorruption(t *testing.T) {
	frames := map[string][]byte{
		"snapshot": EncodeSnapshot(&Snapshot{Node: 3, Seq: 8, At: 77, Infos: testInfos()}),
		"deploy":   EncodeDeploy(&Deploy{Epoch: 2, At: 5, QueueOf: []int{1, 0}, Rank: []float64{3, 4}}),
	}
	decode := func(name string, data []byte) error {
		if name == "snapshot" {
			_, err := DecodeSnapshot(data)
			return err
		}
		_, err := DecodeDeploy(data)
		return err
	}
	for name, frame := range frames {
		if err := decode(name, frame); err != nil {
			t.Fatalf("%s: pristine frame rejected: %v", name, err)
		}
		for i := range frame {
			bad := append([]byte(nil), frame...)
			bad[i] ^= 0x40
			if decode(name, bad) == nil {
				t.Fatalf("%s: byte %d flipped, frame still accepted", name, i)
			}
		}
		for n := 0; n < len(frame); n++ {
			if decode(name, frame[:n]) == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", name, n)
			}
		}
		if decode(name, append(append([]byte(nil), frame...), 0)) == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}
	// Cross-type confusion: a valid snapshot frame is not a deploy.
	if _, err := DecodeDeploy(frames["snapshot"]); err == nil {
		t.Fatal("snapshot frame accepted as deploy")
	}
	if _, err := DecodeSnapshot(frames["deploy"]); err == nil {
		t.Fatal("deploy frame accepted as snapshot")
	}
}

// TestStreamFraming: frames written back to back on one byte stream
// come out of the reassembler intact whatever the chunk boundaries, a
// partial frame waits, buffered, for the rest, and a frame wholly inside
// a chunk is handed out in place, not copied.
func TestStreamFraming(t *testing.T) {
	s := EncodeSnapshot(&Snapshot{Node: 1, Seq: 2, At: 3, Infos: testInfos()})
	d := EncodeDeploy(&Deploy{Epoch: 1, At: 4, QueueOf: []int{0}, Rank: []float64{1}})
	stream := append(append([]byte(nil), s...), d...)
	for _, size := range []int{1, 7, headerLen, len(s) - 1, len(s), len(stream)} {
		var r reassembler
		var got [][]byte
		for off := 0; off < len(stream); off += size {
			var err error
			if got, err = r.feed(stream[off:min(off+size, len(stream))], got); err != nil {
				t.Fatalf("%d-byte chunks: %v", size, err)
			}
		}
		if len(got) != 2 || !bytes.Equal(got[0], s) || !bytes.Equal(got[1], d) || len(r.buf) != 0 {
			t.Fatalf("%d-byte chunks: %d frames, %d bytes left over", size, len(got), len(r.buf))
		}
	}
	if got, _ := new(reassembler).feed(stream, nil); &got[0][0] != &stream[0] || &got[1][0] != &stream[len(s)] {
		t.Fatal("a frame inside the chunk was copied")
	}
	// A partial frame is held, not returned and not refused.
	var r reassembler
	if got, err := r.feed(s[:len(s)-3], nil); err != nil || len(got) != 0 || len(r.buf) != len(s)-3 {
		t.Fatalf("partial frame: %d frames, err %v, %d bytes held", len(got), err, len(r.buf))
	}
	if got, err := r.feed(s[len(s)-3:], nil); err != nil || len(got) != 1 || !bytes.Equal(got[0], s) {
		t.Fatalf("completed frame: %d frames, err %v", len(got), err)
	}
}

func simRT() core.RuntimeConfig {
	return core.RuntimeConfig{
		Ranking:      core.ByThroughput,
		PollInterval: 250 * 1000 * 1000,
		DeployDelay:  1000 * 1000,
	}
}

// slotInfos builds a 2-slot snapshot with the given per-slot bytes
// (packets = bytes/100); the slot tiling matches across nodes the way
// SliceInit guarantees in a real fleet.
func slotInfos(bytes0, bytes1 uint64) []cluster.Info {
	mk := func(id int, lo, hi uint32, b uint64) cluster.Info {
		return cluster.Info{
			ID: id, Active: true,
			Ranges:             []cluster.Range{{Min: lo, Max: hi}},
			NominalCardinality: []int{0},
			Packets:            b / 100, Bytes: b, TotalPackets: b / 100,
			Size: float64(hi - lo),
		}
	}
	return []cluster.Info{mk(0, 0, 127, bytes0), mk(1, 128, 255, bytes1)}
}

// TestCoordinatorGlobalRanking is the tentpole property in miniature: a
// distributed aggregate that every node's local view misranks is
// correctly demoted by the merged ranking. Each node sees benign 1000 >
// attack 600 locally; fleet-wide the attack is 1200 > 1100.
func TestCoordinatorGlobalRanking(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	coord, err := NewCoordinator(link.Coordinator(), CoordinatorConfig{
		Slots: 2, NumQueues: 2, Ranking: core.ByThroughput, Distance: cluster.Manhattan,
	})
	if err != nil {
		t.Fatal(err)
	}
	deploys := make(map[uint32][]*Deploy)
	ends := make(map[uint32]*NodeEnd)
	for _, id := range []uint32{1, 2} {
		id := id
		ends[id] = link.Node(id)
		ends[id].HandleNode(id, func(frame []byte) {
			dp, err := DecodeDeploy(frame)
			if err != nil {
				t.Errorf("node %d: bad deploy: %v", id, err)
				return
			}
			deploys[id] = append(deploys[id], dp)
		})
	}

	ms := eventsim.Millisecond
	eng.At(10*ms, func(now eventsim.Time) {
		ends[1].ToCoordinator(1, EncodeSnapshot(&Snapshot{Node: 1, Seq: 1, At: now, Infos: slotInfos(1000, 600)}))
	})
	eng.At(20*ms, func(now eventsim.Time) {
		ends[2].ToCoordinator(2, EncodeSnapshot(&Snapshot{Node: 2, Seq: 1, At: now, Infos: slotInfos(100, 600)}))
	})
	eng.RunUntil(eventsim.Second / 2)

	// The coordinator broadcasts to nodes that have reported: node 1
	// sees epoch 1 (alone) then epoch 2 (merged); node 2 joins at epoch
	// 2.
	if got := deploys[1]; len(got) != 2 || got[0].Epoch != 1 || got[1].Epoch != 2 {
		t.Fatalf("node 1 deploys: %+v, want epochs [1 2]", got)
	}
	if got := deploys[2]; len(got) != 1 || got[0].Epoch != 2 {
		t.Fatalf("node 2 deploys: %+v, want epoch [2]", got)
	}
	final := deploys[1][1]
	// Merged bytes: slot 0 = 1100, slot 1 = 1200 — the distributed
	// attack outranks the biggest single benign aggregate, so it lands
	// in the last (lowest-priority) queue.
	if final.Rank[0] != 1100 || final.Rank[1] != 1200 {
		t.Fatalf("merged ranks %v, want [1100 1200]", final.Rank)
	}
	if !reflect.DeepEqual(final.QueueOf, []int{0, 1}) {
		t.Fatalf("global map %v, want attack slot demoted to queue 1", final.QueueOf)
	}
	// Yet each node's LOCAL view would have demoted the benign slot:
	local := core.RankDecision(core.ByThroughput, slotInfos(1000, 600), 2, 2, []int{0, 0}, 0, 0)
	if !reflect.DeepEqual(local.QueueOf, []int{1, 0}) {
		t.Fatalf("local misranking premise broken: %v", local.QueueOf)
	}

	st := coord.Stats()
	if st.Nodes != 2 || st.Epoch != 2 || st.Merges != 2 || st.Rejected != 0 {
		t.Fatalf("coordinator stats %+v", st)
	}
	mv := coord.MergedView()
	if len(mv) != 2 || mv[0].Bytes != 1100 || mv[1].Bytes != 1200 {
		t.Fatalf("merged view %+v", mv)
	}
}

// TestCoordinatorRejects: spoofed node IDs, oversized snapshots and
// replayed sequence numbers are counted and dropped without disturbing
// the global state. A corrupt frame never gets that far: the protocol
// resets the connection it came on.
func TestCoordinatorRejects(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	coord, err := NewCoordinator(link.Coordinator(), CoordinatorConfig{
		Slots: 2, NumQueues: 2, Ranking: core.ByThroughput, Distance: cluster.Manhattan,
	})
	if err != nil {
		t.Fatal(err)
	}
	one, nine := link.Node(1), link.Node(9)
	good := EncodeSnapshot(&Snapshot{Node: 1, Seq: 5, At: 1, Infos: slotInfos(10, 20)})
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff

	eng.At(eventsim.Millisecond, func(now eventsim.Time) {
		one.ToCoordinator(1, good)                     // accepted
		nine.ToCoordinator(9, good)                    // claims node 1, sent by node 9
		one.ToCoordinator(1, good)                     // replay: seq 5 again
		one.ToCoordinator(1, EncodeSnapshot(&Snapshot{ // 3 infos > 2 slots
			Node: 1, Seq: 6, At: now,
			Infos: append(slotInfos(1, 2), cluster.Info{ID: 2, Active: true, Ranges: []cluster.Range{{}}, NominalCardinality: []int{0}}),
		}))
		one.ToCoordinator(1, corrupt) // CRC failure: the connection resets
	})
	eng.RunUntil(eventsim.Second / 2)

	st := coord.Stats()
	if st.Merges != 1 || st.Rejected != 3 {
		t.Fatalf("stats %+v, want 1 merge and 3 rejections", st)
	}
	if ls := link.Coordinator().Stats(); ls.CRCResets != 1 || ls.FramesIn != 4 {
		t.Fatalf("link %+v, want the corrupt frame reset and the other four dispatched", ls)
	}
}

// TestNodeFallbackAndRecovery drives a fleet node through the full
// partition arc: fleet ranking while connected, sticky local fallback
// while partitioned (never FIFO — the decision still demotes by the
// local view), and recovery to fleet on heal. The partition is shorter
// than the silence bound, so the connection outlives it.
func TestNodeFallbackAndRecovery(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	if _, err := NewCoordinator(link.Coordinator(), CoordinatorConfig{
		Slots: 2, NumQueues: 2, Ranking: core.ByThroughput, Distance: cluster.Manhattan,
	}); err != nil {
		t.Fatal(err)
	}
	rt := simRT()
	end := link.Node(1)
	node, err := NewNode(1, end, eng.Now, NodeConfig{Slots: 2, NumQueues: 2})
	if err != nil {
		t.Fatal(err)
	}

	if node.Source() != "fleet-fallback:local" || !node.RankingDegraded() {
		t.Fatalf("before first deploy: source=%q degraded=%v", node.Source(), node.RankingDegraded())
	}

	type obs struct {
		source   string
		degraded bool
		queueOf  []int
	}
	var seen []obs
	poll := func(infos []cluster.Info) func(eventsim.Time) {
		return func(now eventsim.Time) {
			dec := node.Rank(now, infos, []int{0, 0}, rt)
			if dec == nil {
				t.Errorf("t=%d: nil decision", now)
				return
			}
			seen = append(seen, obs{node.Source(), node.RankingDegraded(), dec.QueueOf})
		}
	}
	step := rt.PollInterval

	// Poll 0: nothing heard yet -> local fallback. Its snapshot reaches
	// the coordinator behind the hello, whose deploy arrives 2ms later.
	eng.At(0*step, poll(slotInfos(1000, 600)))
	// Poll 1: fleet deploy fresh -> fleet ranking.
	eng.At(1*step, poll(slotInfos(1000, 600)))
	// Partition just after poll 1's deploy is delivered.
	ms := eventsim.Millisecond
	eng.At(1*step+5*ms, func(eventsim.Time) { link.SetUp(false) })
	// Polls 2-4: last deploy ages past the 3-poll bound by poll 5.
	eng.At(2*step, poll(slotInfos(1000, 600)))
	eng.At(3*step, poll(slotInfos(1000, 600)))
	eng.At(4*step, poll(slotInfos(1000, 600)))
	eng.At(5*step, poll(slotInfos(1000, 600)))
	// Heal; poll 6 publishes, poll 7 sees the fresh deploy.
	eng.At(6*step-5*ms, func(eventsim.Time) { link.SetUp(true) })
	eng.At(6*step, poll(slotInfos(1000, 600)))
	eng.At(7*step, poll(slotInfos(1000, 600)))
	eng.RunUntil(8 * step)

	wantSources := []string{
		"fleet-fallback:local", // 0: nothing heard yet
		"fleet",                // 1
		"fleet",                // 2: deploy 1 poll old, within bound
		"fleet",                // 3
		"fleet",                // 4: exactly at the 3-poll bound
		"fleet-fallback:local", // 5: stale -> fallback
		"fleet-fallback:local", // 6: still stale (deploy lands after this poll)
		"fleet",                // 7: recovered
	}
	if len(seen) != len(wantSources) {
		t.Fatalf("saw %d polls, want %d", len(seen), len(wantSources))
	}
	for i, want := range wantSources {
		if seen[i].source != want {
			t.Fatalf("poll %d: source %q, want %q (all: %+v)", i, seen[i].source, want, seen)
		}
		if wantDeg := want != "fleet"; seen[i].degraded != wantDeg {
			t.Fatalf("poll %d: degraded=%v, want %v", i, seen[i].degraded, wantDeg)
		}
		// Never FIFO: even degraded polls demote a slot. With one node
		// the fleet and local rankings agree: benign slot 0 (1000) is
		// the bigger aggregate, so it is the one demoted.
		if !reflect.DeepEqual(seen[i].queueOf, []int{1, 0}) {
			t.Fatalf("poll %d: queue map %v, want [1 0]", i, seen[i].queueOf)
		}
	}

	st := node.Stats()
	if st.FallbackEngagements != 1 {
		t.Fatalf("fallback engagements %d, want 1 (initial state does not count)", st.FallbackEngagements)
	}
	if st.FleetPolls != 5 || st.LocalPolls != 3 {
		t.Fatalf("fleet/local polls %d/%d, want 5/3", st.FleetPolls, st.LocalPolls)
	}
	if st.PublishErrors != 0 {
		t.Fatalf("publish errors %d (the partition loses writes silently)", st.PublishErrors)
	}
	if st.BadDeploys != 0 || st.Epoch == 0 {
		t.Fatalf("bad deploys %d, epoch %d", st.BadDeploys, st.Epoch)
	}
	if ls := end.Stats(); ls.Connects != 1 || link.Lost == 0 {
		t.Fatalf("link %+v, %d writes lost: want one connection through a lossy partition", ls, link.Lost)
	}
}

// TestNodeRejectsBadDeploys: mis-sized or out-of-range queue maps from
// a misconfigured coordinator never apply, and a corrupt deploy never
// reaches the node: the protocol resets the connection it came on.
func TestNodeRejectsBadDeploys(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	end := link.Node(1)
	node, err := NewNode(1, end, eng.Now, NodeConfig{Slots: 2, NumQueues: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := link.Coordinator()
	eng.At(eventsim.Millisecond, func(now eventsim.Time) { // the hello is in
		tr.ToNode(1, EncodeDeploy(&Deploy{Epoch: 1, At: now, QueueOf: []int{0, 1, 0}, Rank: []float64{0, 0, 0}})) // 3 slots
		tr.ToNode(1, EncodeDeploy(&Deploy{Epoch: 2, At: now, QueueOf: []int{0, 9}, Rank: []float64{0, 0}}))       // queue 9 of 2
		bad := EncodeDeploy(&Deploy{Epoch: 3, At: now, QueueOf: []int{0, 1}, Rank: []float64{0, 0}})
		bad[len(bad)-2] ^= 1 // CRC breakage
		tr.ToNode(1, bad)
	})
	eng.RunUntil(eventsim.Second / 2)
	st := node.Stats()
	if st.BadDeploys != 2 || st.Epoch != 0 {
		t.Fatalf("stats %+v, want 2 bad deploys and no applied epoch", st)
	}
	if ls := end.Stats(); ls.CRCResets != 1 || ls.Connects != 2 {
		t.Fatalf("link %+v, want the corrupt deploy reset and the node back", ls)
	}
	if !node.RankingDegraded() {
		t.Fatal("node applied a rejected deploy")
	}
}

// TestNodeAdoptsRestartedCoordinator: a coordinator that dies at epoch 20
// and is reborn counting from 1 must not be ignored until it has caught
// up. Whether it comes back at once (the node is still riding the dead
// one's last deployment) or after the node fell back, the node ranks
// from the new coordinator within the staleness bound plus two polls of
// its first broadcast.
func TestNodeAdoptsRestartedCoordinator(t *testing.T) {
	for name, outagePolls := range map[string]int{"at once": 0, "after the node fell back": 5} {
		eng := eventsim.New()
		link := NewSimLink(eng)
		tr := link.Coordinator()
		ccfg := CoordinatorConfig{Slots: 2, NumQueues: 2, Ranking: core.ByThroughput, Distance: cluster.Manhattan}
		if _, err := NewCoordinator(tr, ccfg); err != nil {
			t.Fatal(err)
		}
		rt := simRT()
		step, stale := rt.PollInterval, 3*rt.PollInterval
		node, err := NewNode(1, link.Node(1), eng.Now, NodeConfig{Slots: 2, NumQueues: 2})
		if err != nil {
			t.Fatal(err)
		}
		poll := func(now eventsim.Time) { node.Rank(now, slotInfos(1000, 600), []int{0, 0}, rt) }

		// Poll `back` carries the first snapshot the new coordinator sees;
		// its broadcast lands two transport hops later.
		const before = 20
		back := before + outagePolls
		ms := eventsim.Millisecond
		firstBroadcast := eventsim.Time(back)*step + 2*ms
		last := int((firstBroadcast + stale + 2*step) / step)
		for i := 0; i <= last; i++ {
			eng.At(eventsim.Time(i)*step, poll)
		}
		// The coordinator dies once poll 19's deployment is out: frames go
		// nowhere until its successor registers.
		died := eventsim.Time(before-1)*step + 5*ms
		eng.At(died, func(eventsim.Time) { tr.HandleCoordinator(func(uint32, []byte) {}) })
		var reborn *Coordinator
		eng.At(eventsim.Time(back)*step-5*ms, func(eventsim.Time) {
			if st := node.Stats(); st.Epoch != before {
				t.Errorf("%s: node holds epoch %d of the first coordinator, want %d", name, st.Epoch, before)
			}
			if reborn, err = NewCoordinator(tr, ccfg); err != nil {
				t.Error(err)
			}
		})
		eng.RunUntil(eventsim.Time(last+1) * step)

		if node.Source() != "fleet" || node.RankingDegraded() {
			t.Fatalf("%s: source %q after poll %d, want fleet by then", name, node.Source(), last)
		}
		if held, sent := node.Stats().Epoch, reborn.Stats().Epoch; held > sent {
			t.Fatalf("%s: node still holds epoch %d of the dead coordinator; the new one is at %d", name, held, sent)
		}
	}
}

// TestCoordinatorAdoptsRestartedNode: a node reborn under the same id
// publishes from sequence 1 again. Its registration is a handshake, so
// the coordinator merges its very first snapshot — nothing is rejected
// as a replay — and the node is back on the fleet ranking a poll later.
func TestCoordinatorAdoptsRestartedNode(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	coord, err := NewCoordinator(link.Coordinator(), CoordinatorConfig{
		Slots: 2, NumQueues: 2, Ranking: core.ByThroughput, Distance: cluster.Manhattan,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := simRT()
	step := rt.PollInterval
	ncfg := NodeConfig{Slots: 2, NumQueues: 2}
	end := link.Node(1)
	node, err := NewNode(1, end, eng.Now, ncfg)
	if err != nil {
		t.Fatal(err)
	}
	poll := func(now eventsim.Time) { node.Rank(now, slotInfos(1000, 600), []int{0, 0}, rt) }

	const before = 15
	for i := 0; i < before; i++ {
		eng.At(eventsim.Time(i)*step, poll)
	}
	// The old process goes, and the new one dials under its id.
	ms := eventsim.Millisecond
	eng.At(before*step-5*ms, func(eventsim.Time) {
		end.close()
		if node, err = NewNode(1, link.Node(1), eng.Now, ncfg); err != nil {
			t.Error(err)
		}
	})
	eng.At(before*step, poll)
	eng.At(before*step+5*ms, func(eventsim.Time) {
		if st := coord.Stats(); st.Merges != before+1 || st.Rejected != 0 {
			t.Errorf("after the reborn node's first snapshot: %+v, want %d merges and nothing rejected", st, before+1)
		}
	})
	eng.At((before+1)*step, poll)
	eng.RunUntil((before + 2) * step)

	if node.Source() != "fleet" {
		t.Fatalf("reborn node ranks from %q on its second poll, want fleet", node.Source())
	}
	if st := node.Stats(); st.Published != 2 || st.FleetPolls != 1 {
		t.Fatalf("reborn node stats %+v, want 2 publishes and 1 fleet poll", st)
	}
}

// TestSimLinkPartitionCounters: a partition loses writes whole while
// it lasts; one shorter than the silence bound leaves the connection up,
// and a longer one makes both ends shed it, the node's publishes then
// count as drops, and the node redials through refused dials until the
// heal lets one connect.
func TestSimLinkPartitionCounters(t *testing.T) {
	eng := eventsim.New()
	link := NewSimLink(eng)
	var coordGot int
	link.Coordinator().HandleCoordinator(func(uint32, []byte) { coordGot++ })
	end := link.Node(1)
	frame := EncodeSnapshot(&Snapshot{Node: 1, Seq: 1, At: 0, Infos: nil})
	ms := eventsim.Millisecond
	send := func(eventsim.Time) { end.ToCoordinator(1, frame) }
	up := func(up bool) func(eventsim.Time) { return func(eventsim.Time) { link.SetUp(up) } }

	eng.At(10*ms, send)
	eng.At(20*ms, up(false))
	eng.At(30*ms, send)
	eng.At(40*ms, up(true))
	eng.At(50*ms, send)
	eng.At(60*ms, func(eventsim.Time) {
		if coordGot != 2 || link.Lost != 1 || !end.Connected() {
			t.Errorf("after a short partition: got %d, lost %d, connected %v; want 2, 1, true", coordGot, link.Lost, end.Connected())
		}
	})
	eng.At(1500*ms, up(false))
	eng.At(7*eventsim.Second, send)
	eng.At(11*eventsim.Second, up(true))
	eng.RunUntil(20 * eventsim.Second)

	ns, cs := end.Stats(), link.Coordinator().Stats()
	if coordGot != 2 || ns.DropsDisconnected != 1 || !ns.Connected || ns.Connects != 2 || ns.Dials <= 2 {
		t.Fatalf("after a long partition: got %d, node %+v", coordGot, ns)
	}
	if cs.PeersShed != 1 || cs.Accepted != 2 || cs.Connected != 1 {
		t.Fatalf("after a long partition: coordinator %+v", cs)
	}
}

// TestTCPHalvesAreOneRoleEach: an end, or a TCP transport built on one,
// must not have the methods of the role it does not play, or a
// wrong-direction call would compile again.
func TestTCPHalvesAreOneRoleEach(t *testing.T) {
	roles := map[string][]any{
		"ToNode":        {(*TCPTransport)(nil), (*NodeEnd)(nil)},
		"ToCoordinator": {(*TCPCoordinatorTransport)(nil), (*CoordinatorEnd)(nil)},
	}
	for method, halves := range roles {
		for _, half := range halves {
			if _, ok := reflect.TypeOf(half).MethodByName(method); ok {
				t.Errorf("%T has %s", half, method)
			}
		}
	}
	for method, half := range map[string]any{"ToNode": (*CoordinatorEnd)(nil), "ToCoordinator": (*NodeEnd)(nil)} {
		if _, ok := reflect.TypeOf(half).MethodByName(method); !ok {
			t.Errorf("%T lacks %s", half, method)
		}
	}
}
