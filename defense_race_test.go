package accturbo

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestShardedDefenseConcurrentIngest hammers a sharded Defense from
// GOMAXPROCS goroutines (run under -race in CI) and checks the two
// invariants a concurrent pipeline must keep: conservation — every
// packet fed comes back out as exactly one assignment — and validity —
// every verdict names a real cluster slot and a real queue. Once over the
// deployed clusterer, once over a baseline configuration, whose shards
// forward to the reference implementation under the same locks.
func TestShardedDefenseConcurrentIngest(t *testing.T) {
	deployed, baseline := DefaultConfig(), DefaultConfig()
	deployed.Shards = 4
	baseline.Shards, baseline.Clustering.Search = 2, SearchExhaustive
	t.Run("deployed", func(t *testing.T) { shardedConcurrentIngest(t, deployed) })
	t.Run("baseline", func(t *testing.T) { shardedConcurrentIngest(t, baseline) })
}

func shardedConcurrentIngest(t *testing.T, cfg Config) {
	cfg.PollInterval = FromDuration(2 * time.Millisecond)
	cfg.DeployDelay = FromDuration(time.Millisecond)
	d := build(t, NewDefense, cfg)
	defer d.Close()
	if d.Shards() != cfg.Shards {
		t.Fatalf("Shards() = %d, want %d", d.Shards(), cfg.Shards)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const perWorker = 4000
	maxClusters := cfg.Clustering.MaxClusters
	numQueues := d.NumQueues()

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var v Verdict
				if i%10 == 0 {
					v = d.Process(0, floodPacket())
				} else {
					v = d.Process(0, benignPacket(w*perWorker+i))
				}
				if v.Cluster < 0 || v.Cluster >= maxClusters {
					errs <- "cluster out of range"
					return
				}
				if v.Queue < 0 || v.Queue >= numQueues {
					errs <- "queue out of range"
					return
				}
			}
		}(w)
	}
	// Concurrent control-plane activity and snapshot reads while the
	// ingest goroutines are running.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			d.Poll()
			for _, info := range d.Clusters() {
				if info.ID < 0 || info.ID >= maxClusters {
					errs <- "snapshot slot out of range"
					return
				}
			}
			d.LastDecision()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}

	want := uint64(workers * perWorker)
	if got := d.PacketsObserved(); got != want {
		t.Fatalf("conservation broken: observed %d packets, fed %d", got, want)
	}
}

// TestRealTimeDefenseDeploys checks the wall-clock control loop end to
// end through the facade: a flood plus background trickle must trigger
// a deployment that demotes the flood out of the top queue.
func TestRealTimeDefenseDeploys(t *testing.T) {
	cfg := HardwareConfig()
	cfg.Shards = 2
	cfg.PollInterval = FromDuration(5 * time.Millisecond)
	cfg.DeployDelay = FromDuration(time.Millisecond)
	d := build(t, NewRealTimeDefense, cfg)
	defer d.Close()

	// Feed a dominant flood plus diverse benign flows (so both shards
	// hold clusters in several slots) until a deployment lands that
	// demotes the flood's merged slot out of the top queue. The first
	// deployment may predate the benign clusters and legitimately map a
	// lone flood cluster to queue 0, hence the retry loop.
	deadline := time.Now().Add(5 * time.Second)
	demoted := false
	for n := 0; time.Now().Before(deadline); n++ {
		var fv Verdict
		for i := 0; i < 9; i++ {
			fv = d.Process(0, floodPacket())
		}
		d.Process(0, benignPacket(n%50))
		if d.Deployments() > 0 && fv.Queue > 0 {
			demoted = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if d.Deployments() == 0 {
		t.Fatal("real-time control loop never deployed")
	}
	if d.LastDecision() == nil {
		t.Fatal("no decision recorded")
	}
	if !demoted {
		t.Fatal("flood never demoted out of the highest-priority queue")
	}
}

// TestDeterministicMetricsConcurrentWithProcess holds Metrics, Health
// and WriteMetrics to their word — safe from any goroutine, concurrently
// with Process — on a deterministic Defense, which is what
// accturbo-defend's admin goroutine does to one (run under -race in CI).
// Process advances a simulated clock that only its own goroutine may
// read, and the clusterer's packet count is a plain field: the readers
// must be answered from what the pipeline published atomically.
func TestDeterministicMetricsConcurrentWithProcess(t *testing.T) {
	cfg := HardwareConfig()
	cfg.PollInterval = FromDuration(2 * time.Millisecond)
	cfg.DeployDelay = FromDuration(time.Millisecond)
	cfg.FailOpenAfter = FromDuration(50 * time.Millisecond)
	d := build(t, NewDefense, cfg)
	defer d.Close()

	const packets = 20000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			h, m := d.Health(), d.Metrics()
			if h.Control.PollAge < -1 || h.Control.DecisionAge < -1 {
				t.Errorf("negative age in %+v", h.Control)
				return
			}
			if m.PacketsObserved < last || m.PacketsObserved > packets {
				t.Errorf("packets observed went from %d to %d of %d", last, m.PacketsObserved, packets)
				return
			}
			last = m.PacketsObserved
			if err := d.WriteMetrics(io.Discard); err != nil {
				t.Errorf("WriteMetrics: %v", err)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < packets; i++ {
		at := time.Duration(i) * 50 * time.Microsecond
		if i%10 == 0 {
			d.Process(at, floodPacket())
		} else {
			d.Process(at, benignPacket(i))
		}
	}
	close(done)
	wg.Wait()
	if got := d.PacketsObserved(); got != packets {
		t.Fatalf("PacketsObserved = %d, want %d", got, packets)
	}
	if h := d.Health(); h.Control.Deployments == 0 || h.Control.PollAge < 0 {
		t.Fatalf("the control loop never ran: %+v", h.Control)
	}
}

// TestLiveMetricsAndSnapshotsConsistent holds Metrics and SaveState on
// a live real-time Defense, fed from two goroutines, to agreeing with
// themselves: PacketsObserved, ΣAssignedPkts and ΣRoutedPkts are one
// number in every Metrics, and in every snapshot once it is restored
// into a fresh Defense (run under -race in CI).
func TestLiveMetricsAndSnapshotsConsistent(t *testing.T) {
	cfg := HardwareConfig()
	cfg.Shards = 2
	cfg.PollInterval = FromDuration(5 * time.Millisecond)
	cfg.DeployDelay = FromDuration(time.Millisecond)
	d := build(t, NewRealTimeDefense, cfg)
	defer d.Close()

	const feeders, perFeeder = 2, 20000
	var wg sync.WaitGroup
	for w := 0; w < feeders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				if i%10 == 0 {
					d.Process(0, floodPacket())
				} else {
					d.Process(0, benignPacket(w*perFeeder+i))
				}
			}
		}(w)
	}
	fed := make(chan struct{})
	go func() { wg.Wait(); close(fed) }()

	var snaps [][]byte
	var bad error
	for live := true; live && bad == nil; {
		select {
		case <-fed:
			live = false
		default:
		}
		bad = countsAgree("live Metrics", d.Metrics())
		if len(snaps) < 64 {
			var buf bytes.Buffer
			if err := d.SaveState(&buf); err != nil {
				bad = err
			}
			snaps = append(snaps, buf.Bytes())
		}
	}
	<-fed
	if bad != nil {
		t.Fatal(bad)
	}
	if got := d.PacketsObserved(); got != feeders*perFeeder {
		t.Fatalf("PacketsObserved = %d, want %d", got, feeders*perFeeder)
	}
	for i, blob := range snaps {
		r := build(t, NewDefense, cfg)
		if err := r.RestoreState(bytes.NewReader(blob)); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		err := countsAgree(fmt.Sprintf("snapshot %d restored", i), r.Metrics())
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// countsAgree reports whether m's packet total and both per-slot and
// per-queue sums are the same number.
func countsAgree(what string, m Metrics) error {
	var assigned, routed uint64
	for _, c := range m.AssignedPkts {
		assigned += c
	}
	for _, c := range m.RoutedPkts {
		routed += c
	}
	if assigned != m.PacketsObserved || routed != m.PacketsObserved {
		return fmt.Errorf("%s: PacketsObserved %d, ΣAssignedPkts %d, ΣRoutedPkts %d",
			what, m.PacketsObserved, assigned, routed)
	}
	return nil
}
