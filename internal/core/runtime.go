package core

import (
	"fmt"
	"strings"

	"accturbo/internal/eventsim"
)

// RuntimeConfig is the hot-reloadable half of Config: everything the
// control loop re-reads on every tick and an operator may change on a
// running defense without dropping a packet. The structural half —
// feature set, cluster count, queue count, shards — is fixed at
// construction because changing it would invalidate live data-plane
// state (cluster geometry, queue buffers, shard demux).
//
// The control plane holds the current RuntimeConfig in a Hot pointer:
// Reconfigure validates a patched copy, publishes it atomically (which
// bumps the config generation), and reschedules its tickers under
// generation stamps so a cancelled ticker that still fires sees a
// stale generation and does nothing.
type RuntimeConfig struct {
	// Ranking selects the cluster-maliciousness estimate (§5.1).
	Ranking Ranking
	// PollInterval is the control-plane polling period.
	PollInterval eventsim.Time
	// DeployDelay is the poll→deploy latency of every decision.
	DeployDelay eventsim.Time
	// ReseedInterval, when positive, discards all clusters periodically.
	ReseedInterval eventsim.Time
	// FailOpenAfter, when positive, arms the staleness watchdog (see
	// Config.FailOpenAfter), which checks once per PollInterval.
	FailOpenAfter eventsim.Time
}

// Runtime extracts the hot-reloadable fields from a Config.
func (c Config) Runtime() RuntimeConfig {
	return RuntimeConfig{
		Ranking:        c.Ranking,
		PollInterval:   c.PollInterval,
		DeployDelay:    c.DeployDelay,
		ReseedInterval: c.ReseedInterval,
		FailOpenAfter:  c.FailOpenAfter,
	}
}

// Validate checks the runtime configuration. The checks mirror
// Config.Validate's runtime-field subset, so a Config validates iff its
// structural half and its Runtime() both validate.
func (r *RuntimeConfig) Validate() error {
	if r.PollInterval <= 0 {
		return fmt.Errorf("core: PollInterval %v must be positive", r.PollInterval)
	}
	if r.DeployDelay <= 0 {
		return fmt.Errorf("core: DeployDelay %v must be positive", r.DeployDelay)
	}
	if r.Ranking > ByPacketRateOverSize {
		return fmt.Errorf("core: unknown ranking %d", r.Ranking)
	}
	if r.ReseedInterval < 0 {
		return fmt.Errorf("core: ReseedInterval %v < 0", r.ReseedInterval)
	}
	if r.FailOpenAfter < 0 {
		return fmt.Errorf("core: FailOpenAfter %v < 0", r.FailOpenAfter)
	}
	return nil
}

// RuntimePatch is a partial RuntimeConfig: nil fields keep their
// current value. It is the payload of Defense.Reconfigure and the
// PUT /config admin endpoint (field names are the JSON contract).
type RuntimePatch struct {
	Ranking        *Ranking       `json:"ranking,omitempty"`
	PollInterval   *eventsim.Time `json:"poll_interval_ns,omitempty"`
	DeployDelay    *eventsim.Time `json:"deploy_delay_ns,omitempty"`
	ReseedInterval *eventsim.Time `json:"reseed_interval_ns,omitempty"`
	FailOpenAfter  *eventsim.Time `json:"fail_open_after_ns,omitempty"`
}

// Apply returns base with the patch's non-nil fields replaced.
func (p RuntimePatch) Apply(base RuntimeConfig) RuntimeConfig {
	if p.Ranking != nil {
		base.Ranking = *p.Ranking
	}
	if p.PollInterval != nil {
		base.PollInterval = *p.PollInterval
	}
	if p.DeployDelay != nil {
		base.DeployDelay = *p.DeployDelay
	}
	if p.ReseedInterval != nil {
		base.ReseedInterval = *p.ReseedInterval
	}
	if p.FailOpenAfter != nil {
		base.FailOpenAfter = *p.FailOpenAfter
	}
	return base
}

// ParseRanking maps an operator-facing name to a Ranking: the paper's
// Fig. 11a labels ("Th.", "N.P.", "Th./Size", "N.P./Size") or the
// spelled-out aliases, case-insensitively.
func ParseRanking(s string) (Ranking, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "th.", "th", "throughput":
		return ByThroughput, nil
	case "n.p.", "np", "packetrate", "packet-rate":
		return ByPacketRate, nil
	case "th./size", "th/size", "throughput/size":
		return ByThroughputOverSize, nil
	case "n.p./size", "np/size", "packetrate/size", "packet-rate/size":
		return ByPacketRateOverSize, nil
	}
	return 0, fmt.Errorf("core: unknown ranking %q (have Th., N.P., Th./Size, N.P./Size)", s)
}
