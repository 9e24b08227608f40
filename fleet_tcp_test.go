package accturbo

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"accturbo/internal/faults"
	"accturbo/internal/fleet"
)

// waitNoExtraGoroutines is the facade-level no-leak gate: after every
// fleet component closes, the goroutine count must return to base.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d alive, base %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetTCPChaosArc is the acceptance arc for the socket backend: a
// 3-node fleet over real loopback TCP, every connection through a
// chaos proxy injecting byte corruption, mid-frame RSTs, and stalls —
// converge to fleet ranking, kill the coordinator process mid-run,
// watch every node degrade to the sticky local fallback (never
// undefended FIFO), restart the coordinator on the same address, and
// watch every node recover. Closes everything and verifies zero
// goroutine leaks. The transport runs on its production timers; the
// poll interval is 7 ms, so the 3-poll staleness bound (21 ms) clears
// the proxy's 2 ms stalls.
func TestFleetTCPChaosArc(t *testing.T) {
	base := runtime.NumGoroutine()
	nodeCfg := fleetCfg().Node
	nodeCfg.PollInterval = FromDuration(7 * time.Millisecond)

	coord, err := NewFleetTCPCoordinator(FleetTCPCoordinatorConfig{
		ListenAddr: "127.0.0.1:0",
		Node:       nodeCfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordAddr := coord.Addr()

	px, err := fleet.NewChaosProxy("127.0.0.1:0", coordAddr, 5, faults.Spec{Stream: faults.StreamSpec{
		CorruptEvery: 16 << 10,
		ResetEvery:   64 << 10,
		DelayEvery:   32 << 10,
		DelayFor:     FromDuration(2 * time.Millisecond),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	const numNodes = 3
	var nodes []*FleetTCPNode
	for i := 1; i <= numNodes; i++ {
		n, err := NewFleetTCP(FleetTCPConfig{
			CoordinatorAddr: px.Addr(),
			NodeID:          uint32(i),
			Node:            nodeCfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	// waitFor drives traffic into every node until all of them report
	// the wanted ranking state at once — and asserts along the way that
	// no node ever leaves the two defended sources for FIFO. For the
	// "fleet" state, the rank source alone is not evidence (it is also
	// the optimistic boot value), so each node must additionally have
	// applied fleet deployments beyond its floor: real frames over the
	// real socket.
	waitFor := func(source string, degraded bool, fleetPollsAbove []uint64, what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			for i, n := range nodes {
				for p := 0; p < 20; p++ {
					n.Defense().Process(0, benignPacket(i*1000+p))
				}
			}
			ok := true
			for i, n := range nodes {
				h := n.Defense().Health()
				if h.Control.RankSource != "fleet" && h.Control.RankSource != "fleet-fallback:local" {
					t.Fatalf("node %d left the defended sources: %q", i+1, h.Control.RankSource)
				}
				if h.Control.RankSource != source || h.Degraded != degraded {
					ok = false
				}
				if fleetPollsAbove != nil && n.Stats().FleetPolls <= fleetPollsAbove[i] {
					ok = false
				}
			}
			if ok {
				return
			}
			if time.Now().After(deadline) {
				for i, n := range nodes {
					t.Logf("node %d: health=%+v ranker=%+v transport=%+v",
						i+1, n.Defense().Health().Control, n.Stats(), n.TransportStats())
				}
				t.Logf("proxy: %+v", px.Stats())
				t.Fatalf("%s: not reached within 20s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitFor("fleet", false, make([]uint64, numNodes), "convergence through the chaos proxy")
	// All three appear in the liveness view — polled, because a chaos
	// reset can have a node mid-re-handshake at any given instant.
	agesDeadline := time.Now().Add(10 * time.Second)
	for len(coord.NodeAges()) != numNodes {
		if time.Now().After(agesDeadline) {
			t.Fatalf("coordinator liveness view stuck at %v, want %d nodes", coord.NodeAges(), numNodes)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Kill the coordinator mid-pulse: every node must degrade to the
	// sticky local fallback once its staleness bound expires.
	coord.Close()
	waitFor("fleet-fallback:local", true, nil, "fallback after coordinator kill")
	for i, n := range nodes {
		if st := n.Stats(); st.LocalPolls == 0 {
			t.Fatalf("node %d: no local fallback polls while the coordinator was down: %+v", i+1, st)
		}
	}
	// Floor for the recovery check: fleet polls counted so far are
	// pre-outage history; recovery means new ones land on top.
	duringOutage := make([]uint64, numNodes)
	for i, n := range nodes {
		duringOutage[i] = n.Stats().FleetPolls
	}

	// Coordinator reborn on the same address: nodes re-handshake through
	// the proxy and recover fleet ranking, no restart needed.
	coord2, err := NewFleetTCPCoordinator(FleetTCPCoordinatorConfig{
		ListenAddr: coordAddr,
		Node:       nodeCfg,
	})
	if err != nil {
		t.Fatalf("coordinator restart on %s: %v", coordAddr, err)
	}
	waitFor("fleet", false, duringOutage, "recovery after coordinator restart")
	for i, n := range nodes {
		if st := n.Stats(); st.FallbackEngagements == 0 {
			t.Fatalf("node %d: the outage left no fallback engagement: %+v", i+1, st)
		}
		if ts := n.TransportStats(); ts.Connects < 2 {
			t.Fatalf("node %d: no reconnect recorded: %+v", i+1, ts)
		}
	}
	if cs := coord2.Stats(); cs.Nodes != numNodes {
		t.Fatalf("restarted coordinator sees %d nodes, want %d", cs.Nodes, numNodes)
	}

	// The chaos was real: the proxy injected at least some of each
	// class over the run (corruption keeps CRC resets exercised).
	if ps := px.Stats(); ps.BytesCorrupted == 0 {
		t.Fatalf("proxy injected no corruption over the whole arc: %+v", ps)
	}

	for _, n := range nodes {
		n.Close()
	}
	nodes = nil
	coord2.Close()
	px.Close()
	waitNoExtraGoroutines(t, base)
}

// TestFleetTCPStartsDegradedWithoutCoordinator: a node booted against a
// dead coordinator address runs defended on the local fallback from the
// first poll, and Close during the dial/backoff cycle returns promptly.
func TestFleetTCPStartsDegradedWithoutCoordinator(t *testing.T) {
	base := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	n, err := NewFleetTCP(FleetTCPConfig{
		CoordinatorAddr: deadAddr,
		NodeID:          1,
		Node:            fleetCfg().Node,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		for p := 0; p < 50; p++ {
			n.Defense().Process(0, benignPacket(p))
		}
		h := n.Defense().Health()
		if h.Control.RankSource == "fleet-fallback:local" && h.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node never reached the local fallback: %+v", h.Control)
		}
		time.Sleep(time.Millisecond)
	}
	if n.Connected() {
		t.Fatal("node claims a connection to a dead address")
	}
	start := time.Now()
	n.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close during reconnect took %v", d)
	}
	n.Close() // idempotent
	waitNoExtraGoroutines(t, base)
}

// TestFleetTCPCloseWhilePublishing is the facade-level close race for
// the socket fleet, mirroring TestFleetCloseWhilePublishing: producers
// hammer every node (forcing polls, hence publishes over live TCP)
// while the node and coordinator close in varying orders. Every
// interleaving must resolve cleanly under -race.
func TestFleetTCPCloseWhilePublishing(t *testing.T) {
	for iter := 0; iter < 4; iter++ {
		coord, err := NewFleetTCPCoordinator(FleetTCPCoordinatorConfig{
			ListenAddr: "127.0.0.1:0",
			Node:       fleetCfg().Node,
		})
		if err != nil {
			t.Fatal(err)
		}
		var nodes []*FleetTCPNode
		for i := 1; i <= 2; i++ {
			n, err := NewFleetTCP(FleetTCPConfig{
				CoordinatorAddr: coord.Addr(),
				NodeID:          uint32(i),
				Node:            fleetCfg().Node,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for ni, n := range nodes {
			wg.Add(1)
			go func(ni int, n *FleetTCPNode) {
				defer wg.Done()
				d := n.Defense()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					d.Process(0, benignPacket(ni*10000+i))
					if i%8 == 0 {
						d.Poll() // force a publish over the socket
					}
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}(ni, n)
		}
		time.Sleep(time.Duration(iter) * 500 * time.Microsecond)
		if iter%2 == 0 {
			coord.Close() // coordinator dies under the nodes first
		}
		for _, n := range nodes {
			n.Close()
		}
		coord.Close()
		close(stop)
		wg.Wait()
		for _, n := range nodes {
			n.Close() // idempotent
		}
	}
}
