package accturbo

import (
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
	d := NewDefense(cfg)
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
	d := NewRealTimeDefense(cfg)
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
	d := NewDefense(cfg)
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
