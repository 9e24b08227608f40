// Package core plants a field set only through a pointer table, the
// shape of core.RuntimeConfig.patch behind PUT /config.
package core

// RuntimeConfig is the hot-reloadable configuration.
type RuntimeConfig struct {
	PollInterval     int
	WatchdogInterval int
}

// RuntimePatch is a partial RuntimeConfig.
type RuntimePatch struct {
	PollInterval     *int
	WatchdogInterval *int
}

// DefaultRuntimeConfig polls every 100 units.
func DefaultRuntimeConfig() RuntimeConfig { return RuntimeConfig{PollInterval: 100} }

// Replay is the all-fields patch that replays r.
func Replay(r RuntimeConfig) RuntimePatch {
	return RuntimePatch{PollInterval: &r.PollInterval, WatchdogInterval: &r.WatchdogInterval}
}
