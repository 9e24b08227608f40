package admin

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accturbo"
)

func TestConfigPatchWireFormat(t *testing.T) {
	var cp configPatch
	body := `{"ranking": "N.P./Size", "poll_interval_ms": 125, "deploy_delay_ms": 25.5}`
	if err := json.Unmarshal([]byte(body), &cp); err != nil {
		t.Fatal(err)
	}
	p, err := cp.toRuntimePatch()
	if err != nil {
		t.Fatal(err)
	}
	if p.Ranking == nil || *p.Ranking != accturbo.RankByPacketRateOverSize {
		t.Fatalf("ranking not parsed: %+v", p)
	}
	if p.PollInterval == nil || p.PollInterval.Duration() != 125*time.Millisecond {
		t.Fatalf("poll interval not converted: %+v", p)
	}
	if p.DeployDelay == nil || p.DeployDelay.Duration() != 25500*time.Microsecond {
		t.Fatalf("fractional ms lost: %+v", p)
	}
	if p.ReseedInterval != nil || p.FailOpenAfter != nil {
		t.Fatalf("absent fields should stay nil: %+v", p)
	}

	bogus := "bogus"
	if _, err := (configPatch{Ranking: &bogus}).toRuntimePatch(); err == nil {
		t.Fatal("accepted an unknown ranking name")
	}
}

func TestWriteConfigReflectsReconfigure(t *testing.T) {
	d := newDefense(t)
	defer d.Close()

	poll := accturbo.FromDuration(125 * time.Millisecond)
	r := accturbo.RankByPacketRate
	if _, err := d.Reconfigure(accturbo.RuntimePatch{PollInterval: &poll, Ranking: &r}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	writeConfig(rec, d)
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["ranking"] != "N.P." {
		t.Fatalf("ranking = %v", got["ranking"])
	}
	if got["poll_interval_ms"] != 125.0 {
		t.Fatalf("poll_interval_ms = %v", got["poll_interval_ms"])
	}
	if got["generation"] != 2.0 {
		t.Fatalf("generation = %v", got["generation"])
	}
}

// newDefense builds a deterministic Defense on the hardware config.
func newDefense(tb testing.TB) *accturbo.Defense {
	tb.Helper()
	d, err := accturbo.NewDefense(accturbo.HardwareConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// fastCfg is a node config whose control loop turns over in
// milliseconds, so liveness transitions land within a test.
func fastCfg() accturbo.Config {
	cfg := accturbo.HardwareConfig()
	cfg.Clustering.SliceInit = true
	cfg.PollInterval = accturbo.FromDuration(2 * time.Millisecond)
	cfg.DeployDelay = accturbo.FromDuration(500 * time.Microsecond)
	cfg.ReseedInterval = 0
	return cfg
}

func testPacket(i int) *accturbo.Packet {
	return &accturbo.Packet{
		SrcIP: accturbo.V4(10, byte(i>>8), byte(i), 1), DstIP: accturbo.V4(198, 18, 0, byte(i)),
		Protocol: 6, SrcPort: uint16(1024 + i), DstPort: 443, TTL: 64, Length: uint16(60 + i%1000),
	}
}

// driveUntil feeds d (a TCP fleet node, whose polls ride on the wall
// clock) until cond holds.
func driveUntil(t *testing.T, what string, cond func() bool, ds ...*accturbo.Defense) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !cond(); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached within 10s", what)
		}
		for _, d := range ds {
			d.Process(0, testPacket(i))
		}
		time.Sleep(time.Millisecond)
	}
}

// at walks a decoded JSON document by object key (string) or array
// index (int), failing the test where the path breaks.
func at(t *testing.T, doc any, path ...any) any {
	t.Helper()
	for _, step := range path {
		switch k := step.(type) {
		case string:
			m, ok := doc.(map[string]any)
			if !ok || m[k] == nil {
				t.Fatalf("path %v: no key %q in %v", path, k, doc)
			}
			doc = m[k]
		case int:
			a, ok := doc.([]any)
			if !ok || k >= len(a) {
				t.Fatalf("path %v: no index %d in %v", path, k, doc)
			}
			doc = a[k]
		}
	}
	return doc
}

type call struct {
	method, path, body string
	status             int
	ctype              string  // Content-Type prefix; "" skips the check
	paths              [][]any // JSON paths that must resolve in the body
}

func runCalls(t *testing.T, mode string, h http.Handler, calls []call) {
	t.Helper()
	for _, c := range calls {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		name := mode + " " + c.method + " " + c.path + " " + c.body
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, c.status, rec.Body)
			continue
		}
		if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, c.ctype) {
			t.Errorf("%s: content type %q, want %q", name, got, c.ctype)
		}
		if len(c.paths) == 0 {
			continue
		}
		var doc any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Errorf("%s: body is not JSON: %v", name, err)
			continue
		}
		for _, p := range c.paths {
			at(t, doc, p...)
		}
	}
}

// singleHealth and nodeHealth are the key paths scripts/fleet_tcp_smoke.sh
// and operators' jq filters read.
var singleHealth = [][]any{{"control", "rank_source"}, {"degraded"}, {"ingest_capacity"}, {"packets_observed"}}

var nodeHealth = [][]any{
	{"node"}, {"connected"}, {"health", "control", "rank_source"}, {"health", "degraded"},
	{"ranker", "FleetPolls"}, {"ranker", "FallbackEngagements"}, {"transport", "Connects"},
}

// TestEndpointsSingle: the full surface of the single-pipeline mode.
func TestEndpointsSingle(t *testing.T) {
	d := newDefense(t)
	defer d.Close()
	vd, err := accturbo.NewVictimDetector(accturbo.DefaultVictimConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := Surface{Health: DefenseView(d), Metrics: d, Live: d, Victims: vd}.Handler()
	configKeys := [][]any{{"generation"}, {"ranking"}, {"poll_interval_ms"}, {"deploy_delay_ms"},
		{"reseed_interval_ms"}, {"fail_open_after_ms"}}
	runCalls(t, "single", h, []call{
		{"GET", "/health", "", 200, "application/json", singleHealth},
		{"GET", "/metrics", "", 200, "text/plain; version=0.0.4", nil},
		{"GET", "/config", "", 200, "application/json", configKeys},
		{"PUT", "/config", `{"ranking":"N.P.","poll_interval_ms":125}` + "\n", 200, "application/json", configKeys},
		{"PUT", "/config", `{"ranking":"bogus"}`, 400, "text/plain", nil},
		{"PUT", "/config", `{"poll_interval_ms":0}`, 422, "text/plain", nil},
		{"DELETE", "/config", "", 405, "text/plain", nil},
		{"GET", "/snapshot", "", 405, "text/plain", nil},
		{"POST", "/snapshot", "", 200, "application/octet-stream", nil},
		{"GET", "/victims", "", 200, "application/json", [][]any{{"windows"}, {"victims"}}},
		{"GET", "/nope", "", 404, "", nil},
	})
	if d.Runtime().PollInterval.Duration() != 125*time.Millisecond || d.ConfigGeneration() != 2 {
		t.Fatalf("the one valid PUT did not land exactly once: %+v generation %d", d.Runtime(), d.ConfigGeneration())
	}

	// /victims lists [] rather than null before the first window closes.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/victims", nil))
	if !strings.Contains(rec.Body.String(), `"victims":[]`) {
		t.Fatalf("/victims body %s", rec.Body)
	}

	// A served snapshot restores into a fresh pipeline.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/snapshot", nil))
	fresh := newDefense(t)
	defer fresh.Close()
	if err := fresh.RestoreState(rec.Body); err != nil {
		t.Fatalf("served snapshot does not restore: %v", err)
	}
	if fresh.Runtime().PollInterval != d.Runtime().PollInterval {
		t.Fatal("restored pipeline lost the reconfigured poll interval")
	}
}

// TestSnapshotRefusalIsAnError: a real-time pipeline whose clustering
// configuration has no snapshot answers POST /snapshot with an error
// status and the reason, not an empty 200.
func TestSnapshotRefusalIsAnError(t *testing.T) {
	cfg := accturbo.HardwareConfig()
	cfg.Clustering.MaxClusters, cfg.NumQueues = 100, 100
	d, err := accturbo.NewRealTimeDefense(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := httptest.NewRecorder()
	Surface{Health: DefenseView(d), Live: d}.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/snapshot", nil))
	if rec.Code < 300 || !strings.Contains(rec.Body.String(), "deployed clustering configuration") {
		t.Fatalf("POST /snapshot: status %d, body %q", rec.Code, rec.Body)
	}
}

// TestVictimsWhileTapObserves: the detector belongs to the capture tap;
// GET /victims reads its published window from the server's goroutine
// while the tap keeps observing (meaningful under -race), and once the
// tap stops the body is the tap's own last answer.
func TestVictimsWhileTapObserves(t *testing.T) {
	vd, err := accturbo.NewVictimDetector(accturbo.DefaultVictimConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := Surface{Victims: vd}.Handler()
	get := func() (doc struct {
		Windows uint64
		Victims []accturbo.Victim
	}) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/victims", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || rec.Code != 200 {
			t.Errorf("/victims: status %d, %v: %s", rec.Code, err, rec.Body)
		}
		return doc
	}
	victim := accturbo.DstKey(&accturbo.Packet{DstIP: accturbo.V4(198, 18, 99, 1)})
	tapDone := make(chan struct{})
	go func() {
		defer close(tapDone)
		for w := 0; w < 30; w++ {
			for i := uint64(0); i < 2000; i++ {
				vd.Observe(victim, 1000)
				vd.Observe(i, 100)
			}
			vd.Advance()
		}
	}()
	var last uint64
	for tapping := true; tapping; {
		select {
		case <-tapDone:
			tapping = false
		default:
		}
		doc := get()
		if doc.Windows < last || len(doc.Victims) > 1 {
			t.Fatalf("/victims went from window %d to %+v", last, doc)
		}
		last = doc.Windows
	}
	if doc := get(); doc.Windows != 30 || len(doc.Victims) != 1 || doc.Victims[0].Key != victim || doc.Victims[0].Windows != 30 {
		t.Fatalf("/victims after the tap stopped: %+v", doc)
	}
}

// TestConfigPutRejectsHostileBodies: each body is refused with 400
// before it can touch the live config.
func TestConfigPutRejectsHostileBodies(t *testing.T) {
	d := newDefense(t)
	defer d.Close()
	h := Surface{Health: DefenseView(d), Live: d}.Handler()
	var calls []call
	for _, body := range []string{
		`{"poll_ms":100}`,                       // unknown field
		`{"watchdog_interval_ms":50}`,           // retired: the watchdog checks every poll
		`{"poll_interval_ms":100}{"ranking":1}`, // trailing bytes
		`{"poll_interval_ms":1e300}`,            // float→Duration overflow
		`{"deploy_delay_ms":9.3e12}`,            // just past MaxInt64 ns
		`{"fail_open_after_ms":-9.3e12}`,
		strings.Repeat(" ", maxConfigBody) + `{"poll_interval_ms":100}`, // over the body cap
		`[1]`,
		``,
	} {
		calls = append(calls, call{"PUT", "/config", body, 400, "text/plain", nil})
	}
	runCalls(t, "hostile", h, calls)
	if d.ConfigGeneration() != 1 {
		t.Fatalf("a refused body moved the config generation to %d", d.ConfigGeneration())
	}
}

// replayFleet feeds every node of f on one virtual timeline, from *at
// on in 100 µs steps, until cond holds; a virtual second without it fails.
func replayFleet(t *testing.T, f *accturbo.Fleet, at *time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := *at + time.Second; !cond(); *at += 100 * time.Microsecond {
		if *at > deadline {
			t.Fatalf("%s: not reached within a virtual second", what)
		}
		for n := 0; n < f.Nodes(); n++ {
			f.Node(n).Process(*at, testPacket(int(*at/time.Microsecond)+n))
		}
	}
}

// TestEndpointsFleet: the in-process fleet mounts /health only, 200
// while the coordinator is reachable and 503 once partitioned.
func TestEndpointsFleet(t *testing.T) {
	f, err := accturbo.NewFleet(accturbo.FleetConfig{Nodes: 2, Node: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := Surface{Health: FleetView(f)}.Handler()
	paths := [][]any{
		{"nodes", 1, "node"}, {"nodes", 0, "health", "control", "rank_source"},
		{"nodes", 0, "health", "degraded"}, {"coordinator", "Epoch"},
	}
	converged := func() bool {
		h0, h1 := f.Node(0).Health(), f.Node(1).Health()
		return !h0.Degraded && !h1.Degraded && h0.Control.RankSource == "fleet" && f.NodeStats(0).FleetPolls > 0
	}
	var at time.Duration
	replayFleet(t, f, &at, "fleet convergence", converged)
	runCalls(t, "fleet", h, []call{
		{"GET", "/health", "", 200, "application/json", paths},
		{"GET", "/metrics", "", 404, "", nil},
		{"GET", "/config", "", 404, "", nil},
	})
	f.SetLink(false)
	replayFleet(t, f, &at, "partition fallback", func() bool { return f.Node(0).Health().Degraded })
	runCalls(t, "fleet partitioned", h, []call{{"GET", "/health", "", 503, "application/json", paths}})

	// A degraded Defense answers 503 through the single-pipeline view too.
	single := Surface{Health: DefenseView(f.Node(0))}.Handler()
	runCalls(t, "single degraded", single, []call{{"GET", "/health", "", 503, "application/json", singleHealth}})
}

// TestFleetViewWhileReplaying: one goroutine replays into a fleet while
// another serves its /health and reads every node's and the
// coordinator's counters, as accturbo-defend's admin goroutine does
// (meaningful under -race). What the reader sees only moves forward, and
// once the replay ends every node ranks from the fleet.
func TestFleetViewWhileReplaying(t *testing.T) {
	f, err := accturbo.NewFleet(accturbo.FleetConfig{Nodes: 3, Node: fastCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h := Surface{Health: FleetView(f)}.Handler()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30000; i++ { // 300 ms of virtual time: 150 polls a node
			f.Node(i%f.Nodes()).Process(time.Duration(i)*10*time.Microsecond, testPacket(i))
		}
	}()
	var epoch uint64
	polls := make([]uint64, f.Nodes())
	for replaying := true; replaying; {
		select {
		case <-done:
			replaying = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
		if rec.Code != 200 && rec.Code != 503 {
			t.Fatalf("/health while replaying: status %d: %s", rec.Code, rec.Body)
		}
		for n := range polls {
			st := f.NodeStats(n)
			if p := st.FleetPolls + st.LocalPolls; p >= polls[n] {
				polls[n] = p
			} else {
				t.Fatalf("node %d: polls went from %d to %d", n, polls[n], p)
			}
		}
		cs := f.CoordinatorStats()
		if cs.Epoch < epoch {
			t.Fatalf("coordinator epoch went from %d to %d", epoch, cs.Epoch)
		}
		epoch = cs.Epoch
		f.MergedClusters()
		f.LastGlobalDecision()
	}
	runCalls(t, "fleet replayed", h, []call{{"GET", "/health", "", 200, "application/json", nil}})
	for n := range polls {
		if src := f.Node(n).Health().Control.RankSource; src != "fleet" {
			t.Errorf("node %d ranks from %q after the replay", n, src)
		}
	}
}

// TestEndpointsTCP: the coordinator's and a node's /health over a live
// loopback link, then the node's 503 against a dead coordinator address.
func TestEndpointsTCP(t *testing.T) {
	c, err := accturbo.NewFleetTCPCoordinator(accturbo.FleetTCPCoordinatorConfig{
		ListenAddr: "127.0.0.1:0", Node: fastCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := accturbo.NewFleetTCP(accturbo.FleetTCPConfig{
		CoordinatorAddr: c.Addr(), NodeID: 5, Node: fastCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	driveUntil(t, "node reporting to the coordinator", func() bool {
		return n.Connected() && len(c.NodeAges()) == 1 && n.Stats().FleetPolls > 0
	}, n.Defense())

	runCalls(t, "coordinator", Surface{Health: CoordinatorView(c)}.Handler(), []call{
		{"GET", "/health", "", 200, "application/json", [][]any{
			{"nodes", 0, "node"}, {"nodes", 0, "last_seen_ms"}, {"coordinator", "Merges"}, {"transport", "Accepted"},
		}},
		{"GET", "/metrics", "", 404, "", nil},
	})
	runCalls(t, "node", Surface{Health: NodeView(5, n), Metrics: n.Defense()}.Handler(), []call{
		{"GET", "/health", "", 200, "application/json", nodeHealth},
		{"GET", "/metrics", "", 200, "text/plain; version=0.0.4", nil},
		{"GET", "/config", "", 404, "", nil},
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	orphan, err := accturbo.NewFleetTCP(accturbo.FleetTCPConfig{
		CoordinatorAddr: dead, NodeID: 6, Node: fastCfg(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer orphan.Close()
	driveUntil(t, "orphan node fallback", func() bool { return orphan.Defense().Health().Degraded }, orphan.Defense())
	runCalls(t, "node orphaned", Surface{Health: NodeView(6, orphan)}.Handler(),
		[]call{{"GET", "/health", "", 503, "application/json", nodeHealth}})
}

// TestServe: Serve binds with a header timeout, answers on the address
// it returns, and reports an unlistenable address instead of exiting.
func TestServe(t *testing.T) {
	d := newDefense(t)
	defer d.Close()
	srv, err := Serve("127.0.0.1:0", "admin test surface on http://%s/health\n", Surface{Health: DefenseView(d)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatal("admin server has no ReadHeaderTimeout")
	}
	if _, err := Serve("127.0.0.1:-1", "unreachable %s\n", Surface{Health: DefenseView(d)}); err == nil {
		t.Fatal("Serve accepted an unlistenable address")
	}
}

// FuzzConfigPatch: whatever bytes arrive on PUT /config, decoding and
// applying them to a live Defense never panics, a refusal leaves the
// config generation alone, and an accepted patch re-reads as sent.
func FuzzConfigPatch(f *testing.F) {
	for _, seed := range []string{
		`{"ranking":"Th./Size","poll_interval_ms":125,"deploy_delay_ms":25.5}`,
		`{"reseed_interval_ms":0,"fail_open_after_ms":3000}`,
		`{"poll_ms":100}`, `{"poll_interval_ms":100} x`, `{"poll_interval_ms":1e300}`,
		`{"deploy_delay_ms":9.3e12}`, `{"poll_interval_ms":-1}`, `{"ranking":null}`, `null`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	d := newDefense(f)
	defer d.Close()
	for i := 0; i < 100; i++ {
		d.Process(time.Duration(i)*time.Millisecond, testPacket(i))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		patch, err := decodeConfigPatch(bytes.NewReader(body))
		if err != nil {
			return
		}
		before := d.ConfigGeneration()
		if _, err := d.Reconfigure(patch); err != nil {
			if d.ConfigGeneration() != before {
				t.Fatalf("refused patch moved the generation: %v", err)
			}
			return
		}
		if got := patch.Apply(d.Runtime()); got != d.Runtime() {
			t.Fatalf("accepted patch %s re-reads as %+v", body, d.Runtime())
		}
	})
}
