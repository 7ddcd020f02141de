// Package deprecated seeds violations for the deprecated analyzer: calls
// to functions and methods documented as Deprecated.
package deprecated

type detector struct{ heartbeats, stale uint64 }

// DetectorStats names the counters.
func (d *detector) DetectorStats() (heartbeats, stale uint64) {
	return d.heartbeats, d.stale
}

// Stats reports the counters as a bare tuple.
//
// Deprecated: use DetectorStats, which names the counters.
func (d *detector) Stats() (uint64, uint64) {
	return d.DetectorStats() // the wrapper body itself is not a violation
}

// Tuple is a deprecated free function.
//
// Deprecated: use DetectorStats.
func Tuple(d *detector) (uint64, uint64) { return d.DetectorStats() }

func caller(d *detector) (uint64, uint64) {
	return d.Stats() // violation: deprecated method
}

func freeCaller(d *detector) (uint64, uint64) {
	return Tuple(d) // violation: deprecated function
}

func fine(d *detector) (uint64, uint64) {
	return d.DetectorStats()
}

// config mirrors the options struct that shimmed functional options
// mutate.
type config struct{ classic bool }

// option mirrors wanfd's functional-option type.
type option func(*config)

// WithArchitecture is the replacement axis for the accreted boolean
// options.
func WithArchitecture(classic bool) option {
	return func(c *config) { c.classic = classic }
}

// WithBatchedPipelines toggles the batched pipelines.
//
// Deprecated: use WithArchitecture.
func WithBatchedPipelines(enabled bool) option {
	return func(c *config) { c.classic = !enabled }
}

func optionCaller() option {
	return WithBatchedPipelines(false) // violation: deprecated option shim
}
