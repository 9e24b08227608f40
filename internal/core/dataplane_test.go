package core

import (
	"testing"
	"time"

	"accturbo/internal/cluster"
	"accturbo/internal/eventsim"
	"accturbo/internal/packet"
)

// assign classifies p and returns its cluster assignment.
func assign(d *Dataplane, p *packet.Packet) cluster.Assignment {
	a, _ := d.Classify(p)
	return a
}

func mkPkt(i int) *packet.Packet {
	return &packet.Packet{
		SrcIP:    packet.V4(byte(i*37), byte(i*11), byte(i*53), byte(i*91)),
		DstIP:    packet.V4(198, 18, byte(i*7), byte(i*13)),
		Protocol: packet.ProtoUDP, SrcPort: uint16(1024 + i*71), DstPort: 443,
		TTL: uint8(40 + i%100), Length: uint16(100 + (i*131)%1400),
	}
}

func TestShardOfStableAndSpread(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	dp := NewDataplane(cfg, false)
	seen := make([]int, 4)
	for i := 0; i < 256; i++ {
		p := mkPkt(i)
		s := dp.ShardOf(p)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		if again := dp.ShardOf(p); again != s {
			t.Fatalf("flow hashed to %d then %d", s, again)
		}
		seen[s]++
	}
	for s, n := range seen {
		if n == 0 {
			t.Fatalf("shard %d received no flows out of 256", s)
		}
	}
	// Same flow, different packet sizes: must still land on one shard.
	a, b := mkPkt(7), mkPkt(7)
	b.Length = 1499
	b.TTL = 1
	if dp.ShardOf(a) != dp.ShardOf(b) {
		t.Fatal("flow affinity broken by non-5-tuple fields")
	}
}

func TestShardedAssignConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	dp := NewDataplane(cfg, false)
	const n = 5000
	for i := 0; i < n; i++ {
		a := assign(dp, mkPkt(i))
		if a.Cluster < 0 || a.Cluster >= cfg.Clustering.MaxClusters {
			t.Fatalf("assignment out of range: %+v", a)
		}
	}
	if got := dp.Observed(); got != n {
		t.Fatalf("observed %d packets, fed %d", got, n)
	}
	var snapTotal uint64
	for _, info := range dp.Snapshot() {
		snapTotal += info.TotalPackets
	}
	if snapTotal != n {
		t.Fatalf("merged snapshot accounts %d packets, fed %d", snapTotal, n)
	}
}

// TestShardedDeterministic runs the same packet sequence twice through
// sharded pipelines and requires identical verdicts: the demux is a
// pure flow hash and each shard is deterministic, so single-threaded
// sharded operation is reproducible.
func TestShardedDeterministic(t *testing.T) {
	run := func() []int {
		cfg := DefaultConfig()
		cfg.Shards = 4
		eng := eventsim.New()
		_, turbo := attach(t, eng, 10e6, nil, cfg)
		out := make([]int, 0, 2000)
		for i := 0; i < 2000; i++ {
			eng.RunUntil(eventsim.Time(i) * eventsim.Millisecond / 4)
			a := assign(turbo.dp, mkPkt(i%300))
			out = append(out, a.Cluster, turbo.QueueOf(a.Cluster))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestShardedControlLoopMergesAndDeploys drives a sharded pipeline
// under the eventsim clock and checks the control plane ranks the
// merged view and deploys a mapping that deprioritizes the flood.
func TestShardedControlLoopMergesAndDeploys(t *testing.T) {
	cfg := fourClusterConfig()
	cfg.Shards = 2
	eng := eventsim.New()
	_, turbo := attach(t, eng, 10e6, nil, cfg)
	flood := &packet.Packet{
		SrcIP: packet.V4(99, 9, 9, 9), DstIP: packet.V4(10, 0, 99, 1),
		Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80, Length: 1000,
		Label: packet.Malicious,
	}
	for ms := 0; ms < 1000; ms++ {
		eng.RunUntil(eventsim.Time(ms) * eventsim.Millisecond)
		assign(turbo.dp, mkPkt(ms%50))
		for i := 0; i < 9; i++ {
			assign(turbo.dp, flood)
		}
	}
	eng.RunUntil(eventsim.Time(1100) * eventsim.Millisecond)
	if turbo.ControlPlane().Deployments() == 0 {
		t.Fatal("sharded control loop never deployed")
	}
	dec := turbo.ControlPlane().LastDecision()
	if dec == nil {
		t.Fatal("no decision")
	}
	// The merged snapshot must account traffic from both shards.
	var total uint64
	for _, info := range dec.Clusters {
		total += info.TotalPackets
	}
	if total == 0 {
		t.Fatal("merged snapshot empty")
	}
	floodA := assign(turbo.dp, flood)
	benignA := assign(turbo.dp, mkPkt(3))
	if turbo.QueueOf(floodA.Cluster) <= turbo.QueueOf(benignA.Cluster) {
		t.Fatalf("flood queue %d not below benign queue %d",
			turbo.QueueOf(floodA.Cluster), turbo.QueueOf(benignA.Cluster))
	}
}

func TestWallClock(t *testing.T) {
	c := NewWallClock()
	if now := c.Now(); now < 0 {
		t.Fatalf("negative wall time %v", now)
	}
	fired := make(chan eventsim.Time, 1)
	c.After(eventsim.Millisecond, func(now eventsim.Time) { fired <- now })
	select {
	case now := <-fired:
		if now <= 0 {
			t.Fatalf("After fired at %v", now)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("After never fired")
	}

	ticks := make(chan struct{}, 16)
	stop := c.Every(eventsim.Millisecond, func(eventsim.Time) {
		select {
		case ticks <- struct{}{}:
		default:
		}
	})
	select {
	case <-ticks:
	case <-time.After(2 * time.Second):
		t.Fatal("Every never ticked")
	}
	stop()
	stop() // idempotent

	// A cancelled one-shot must not fire.
	cancel := c.After(50*eventsim.Millisecond, func(eventsim.Time) {
		t.Error("cancelled callback fired")
	})
	cancel()
	c.Close()
	time.Sleep(80 * time.Millisecond)
}

func TestControlPlaneOnWallClock(t *testing.T) {
	// The same poll→rank→map→deploy loop must run on the real-time
	// driver: feed a flood and a trickle, step via the wall clock, and
	// expect a deployment that separates them.
	cfg := fourClusterConfig()
	cfg.PollInterval = 5 * eventsim.Millisecond
	cfg.DeployDelay = eventsim.Millisecond
	cfg = cfg.withDefaults()
	dp := NewDataplane(cfg, true)
	clock := NewWallClock()
	defer clock.Close()
	cp := newCP(t, dp, clock, cfg)
	cp.Start()
	defer cp.Stop()

	flood := &packet.Packet{
		SrcIP: packet.V4(99, 9, 9, 9), DstIP: packet.V4(10, 0, 99, 1),
		Protocol: packet.ProtoUDP, SrcPort: 123, DstPort: 80, Length: 1000,
	}
	// Feed until a deployment lands that demotes the flood out of the
	// top queue (the very first deployment may predate the benign
	// cluster and legitimately map the lone flood cluster to queue 0).
	deadline := time.Now().Add(5 * time.Second)
	demoted := false
	for time.Now().Before(deadline) {
		var fa cluster.Assignment
		for i := 0; i < 9; i++ {
			fa = assign(dp, flood)
		}
		assign(dp, mkPkt(1))
		if cp.Deployments() > 0 && dp.QueueFor(fa.Cluster) > 0 {
			demoted = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if cp.Deployments() == 0 {
		t.Fatal("control plane never deployed on the wall clock")
	}
	if cp.LastDecision() == nil {
		t.Fatal("no decision recorded")
	}
	if !demoted {
		t.Fatal("flood never demoted out of the highest-priority queue")
	}
}

func TestMergeSnapshots(t *testing.T) {
	mk := func(seed byte) []cluster.Info {
		cfg := cluster.DefaultConfig(4, packet.FeatureSet{
			packet.FDstIPByte2, packet.FDstIPByte3, packet.FSrcPort, packet.FDstPort,
		})
		o := cluster.NewOnline(cfg)
		for i := 0; i < 100; i++ {
			p := mkPkt(i)
			p.DstIP = packet.V4(10, 0, seed, byte(i))
			o.Observe(p)
		}
		return o.Snapshot()
	}
	a, b := mk(1), mk(200)
	merged := cluster.MergeSnapshots(cluster.Manhattan, a, b)
	if len(merged) == 0 {
		t.Fatal("empty merge")
	}
	var wantPkts, gotPkts uint64
	for _, s := range [][]cluster.Info{a, b} {
		for _, info := range s {
			wantPkts += info.TotalPackets
		}
	}
	for _, info := range merged {
		gotPkts += info.TotalPackets
		src := a[info.ID]
		other := b[info.ID]
		for f, r := range info.Ranges {
			if r.Min > src.Ranges[f].Min || r.Min > other.Ranges[f].Min ||
				r.Max < src.Ranges[f].Max || r.Max < other.Ranges[f].Max {
				t.Fatalf("slot %d feature %d: merged range %+v does not enclose inputs", info.ID, f, r)
			}
		}
	}
	if gotPkts != wantPkts {
		t.Fatalf("merged packets %d, want %d", gotPkts, wantPkts)
	}
	// Single snapshot merges to itself (counters and ranges).
	self := cluster.MergeSnapshots(cluster.Manhattan, a)
	if len(self) != len(a) {
		t.Fatalf("self-merge length %d != %d", len(self), len(a))
	}
	for i := range self {
		if self[i].TotalPackets != a[i].TotalPackets {
			t.Fatalf("self-merge counters differ at %d", i)
		}
	}
}
