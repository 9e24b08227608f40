package queue

// REDConfig is built by DefaultREDConfig.
type REDConfig struct {
	// CapacityBytes and IdleRate are passed through from the callers.
	CapacityBytes int
	IdleRate      float64
	// MinThreshold is a fixed function of a parameter: planted.
	MinThreshold int
	// MeanPacketSize is defaulted inside its own constructor: planted.
	MeanPacketSize int
	// Weight is set outside, but only to its default: planted.
	Weight float64
	// MaxP is set outside to another value.
	MaxP float64
}

// DefaultREDConfig is REDConfig's defaults function.
func DefaultREDConfig(capacityBytes int, idleRate float64) REDConfig {
	return REDConfig{
		CapacityBytes:  capacityBytes,
		IdleRate:       idleRate,
		MinThreshold:   capacityBytes / 4,
		MeanPacketSize: 500,
		Weight:         0.002,
		MaxP:           0.1,
	}
}

// RED is a queue built from a REDConfig.
type RED struct{ cfg REDConfig }

// NewRED builds a RED queue.
func NewRED(cfg REDConfig) *RED { return &RED{cfg: cfg} }
