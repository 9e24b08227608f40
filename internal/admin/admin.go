// Package admin is the operator-facing HTTP surface of a running
// defense, and the one place that knows its wire format: /health (a
// per-mode JSON document, 503 while degraded), /metrics (Prometheus
// text), GET/PUT /config (inspect and hot-patch the runtime config),
// POST /snapshot (stream a full state snapshot) and GET /victims (the
// heavy-keeper's current victim list). cmd/accturbo-defend mounts a
// Surface per mode; nothing else builds a handler or opens the socket.
package admin

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"accturbo"
)

// View renders one /health document and says whether the process is
// degraded right now.
type View func() (body any, degraded bool)

// Surface is what one process mode exposes. Health is always mounted;
// each other endpoint is mounted when its field is set.
type Surface struct {
	Health  View
	Metrics *accturbo.Defense        // GET /metrics
	Live    *accturbo.Defense        // GET/PUT /config, POST /snapshot
	Victims *accturbo.VictimDetector // GET /victims
}

// Handler builds the surface's mux.
func (s Surface) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
		body, degraded := s.Health()
		writeJSON(w, degraded, body)
	})
	if d := s.Metrics; d != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := d.WriteMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	if d := s.Live; d != nil {
		mux.HandleFunc("/config", func(w http.ResponseWriter, req *http.Request) { serveConfig(w, req, d) })
		mux.HandleFunc("/snapshot", func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodPost {
				http.Error(w, "POST", http.StatusMethodNotAllowed)
				return
			}
			// Whole before the status line, so a refusal is a 500, not an empty 200.
			var snap bytes.Buffer
			if err := d.SaveState(&snap); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Disposition", `attachment; filename="defense.snap"`)
			if _, err := snap.WriteTo(w); err != nil {
				fmt.Fprintln(os.Stderr, "snapshot:", err)
			}
		})
	}
	if vd := s.Victims; vd != nil {
		mux.HandleFunc("/victims", func(w http.ResponseWriter, _ *http.Request) {
			vs := vd.Victims()
			if vs == nil {
				vs = []accturbo.Victim{}
			}
			writeJSON(w, false, struct {
				Windows uint64            `json:"windows"`
				Victims []accturbo.Victim `json:"victims"`
			}{vd.Windows(), vs})
		})
	}
	return mux
}

// Serve listens on addr, serves the surface in the background, and
// prints banner (a format taking the bound address, so ":0" is
// scrapeable) to stdout. Close the returned server to stop.
func Serve(addr, banner string, s Surface) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	fmt.Printf(banner, ln.Addr())
	return srv, nil
}

// writeJSON answers 200 with body, or 503 when unavailable is set.
func writeJSON(w http.ResponseWriter, unavailable bool, body any) {
	w.Header().Set("Content-Type", "application/json")
	if unavailable {
		// Load balancers read the status line: degraded means "stop
		// sending me traffic", even though the data plane is still
		// forwarding fail-open.
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(body); err != nil {
		fmt.Fprintln(os.Stderr, "admin:", err)
	}
}

// DefenseView is the single-pipeline /health: the Defense's own Health.
func DefenseView(d *accturbo.Defense) View {
	return func() (any, bool) {
		h := d.Health()
		return h, h.Degraded
	}
}

// FleetView is the in-process fleet /health: every node's snapshot plus
// the coordinator's counters in one document, degraded while any node is.
func FleetView(f *accturbo.Fleet) View {
	type nodeHealth struct {
		Node   int             `json:"node"`
		Health accturbo.Health `json:"health"`
	}
	return func() (any, bool) {
		var out struct {
			Nodes       []nodeHealth                   `json:"nodes"`
			Coordinator accturbo.FleetCoordinatorStats `json:"coordinator"`
		}
		degraded := false
		for n := 0; n < f.Nodes(); n++ {
			h := f.Node(n).Health()
			degraded = degraded || h.Degraded
			out.Nodes = append(out.Nodes, nodeHealth{Node: n, Health: h})
		}
		out.Coordinator = f.CoordinatorStats()
		return out, degraded
	}
}

// CoordinatorView is the standalone TCP coordinator's /health: the merge
// counters plus each connected node's last-seen age, so an operator can
// spot a silent vantage point before its snapshots stop mattering. A
// coordinator has no data plane to fail open, so it is never degraded.
func CoordinatorView(c *accturbo.FleetTCPCoordinator) View {
	type nodeAge struct {
		Node       uint32  `json:"node"`
		LastSeenMs float64 `json:"last_seen_ms"`
	}
	return func() (any, bool) {
		ages := c.NodeAges()
		nodes := make([]nodeAge, 0, len(ages))
		for id, age := range ages {
			nodes = append(nodes, nodeAge{Node: id, LastSeenMs: msOf(age)})
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
		return map[string]any{
			"nodes":       nodes,
			"coordinator": c.Stats(),
			"transport":   c.TransportStats(),
		}, false
	}
}

// NodeView is one TCP fleet node's /health: its Defense's Health wrapped
// with the link state and the ranker and transport counters.
func NodeView(id uint32, n *accturbo.FleetTCPNode) View {
	return func() (any, bool) {
		h := n.Defense().Health()
		return map[string]any{
			"node":      id,
			"connected": n.Connected(),
			"health":    h,
			"ranker":    n.Stats(),
			"transport": n.TransportStats(),
		}, h.Degraded
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// configPatch is the wire format of PUT /config: ranking by name (as
// printed in the paper — "Th.", "N.P.", …) and durations in
// milliseconds, friendlier for curl than the library's nanosecond
// virtual-time fields. Absent fields keep their current value.
type configPatch struct {
	Ranking    *string  `json:"ranking,omitempty"`
	PollMs     *float64 `json:"poll_interval_ms,omitempty"`
	DeployMs   *float64 `json:"deploy_delay_ms,omitempty"`
	ReseedMs   *float64 `json:"reseed_interval_ms,omitempty"`
	FailOpenMs *float64 `json:"fail_open_after_ms,omitempty"`
}

// maxConfigBody bounds a PUT /config body; a full patch is ~200 bytes.
const maxConfigBody = 4 << 10

// maxMs is the largest millisecond count whose nanoseconds fit a
// time.Duration; float→int conversion of anything beyond it is
// implementation-defined, so it is refused before converting.
const maxMs = float64(math.MaxInt64 / int64(time.Millisecond))

// decodeConfigPatch reads exactly one JSON object of known fields.
func decodeConfigPatch(r io.Reader) (accturbo.RuntimePatch, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cp configPatch
	if err := dec.Decode(&cp); err != nil {
		return accturbo.RuntimePatch{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return accturbo.RuntimePatch{}, errors.New("admin: trailing data after the config object")
	}
	return cp.toRuntimePatch()
}

func (c configPatch) toRuntimePatch() (accturbo.RuntimePatch, error) {
	var p accturbo.RuntimePatch
	if c.Ranking != nil {
		r, err := accturbo.ParseRanking(*c.Ranking)
		if err != nil {
			return p, err
		}
		p.Ranking = &r
	}
	var err error
	ms := func(name string, v *float64) *accturbo.VirtualTime {
		if v == nil || err != nil {
			return nil
		}
		if !(*v >= -maxMs && *v <= maxMs) {
			err = fmt.Errorf("admin: %s %g out of range", name, *v)
			return nil
		}
		t := accturbo.FromDuration(time.Duration(*v * float64(time.Millisecond)))
		return &t
	}
	p.PollInterval = ms("poll_interval_ms", c.PollMs)
	p.DeployDelay = ms("deploy_delay_ms", c.DeployMs)
	p.ReseedInterval = ms("reseed_interval_ms", c.ReseedMs)
	p.FailOpenAfter = ms("fail_open_after_ms", c.FailOpenMs)
	return p, err
}

func serveConfig(w http.ResponseWriter, req *http.Request, d *accturbo.Defense) {
	switch req.Method {
	case http.MethodGet:
		writeConfig(w, d)
	case http.MethodPut:
		patch, err := decodeConfigPatch(http.MaxBytesReader(w, req.Body, maxConfigBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := d.Reconfigure(patch); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeConfig(w, d)
	default:
		http.Error(w, "GET or PUT", http.StatusMethodNotAllowed)
	}
}

func writeConfig(w http.ResponseWriter, d *accturbo.Defense) {
	rt := d.Runtime()
	writeJSON(w, false, map[string]any{
		"generation":         d.ConfigGeneration(),
		"ranking":            rt.Ranking.String(),
		"poll_interval_ms":   msOf(rt.PollInterval.Duration()),
		"deploy_delay_ms":    msOf(rt.DeployDelay.Duration()),
		"reseed_interval_ms": msOf(rt.ReseedInterval.Duration()),
		"fail_open_after_ms": msOf(rt.FailOpenAfter.Duration()),
	})
}
