package wanfd

import (
	"fmt"
	"time"

	"wanfd/internal/store"
	"wanfd/internal/telemetry"
)

// Option configures the functional-options entry points NewMonitor and
// NewMultiMonitor. Both share one option vocabulary and one defaulting
// pass, so a predictor/margin/floor choice reads identically whether one
// peer or a whole fleet is monitored:
//
//	mon, err := wanfd.NewMultiMonitor(":7007",
//		wanfd.WithEta(time.Second),
//		wanfd.WithPredictor("LAST"),
//		wanfd.WithMargin("JAC_med"),
//		wanfd.WithOnChange(onChange))
//
// Options that only make sense for one entry point (for example
// WithAccrualThreshold on a cluster monitor) are rejected with an error at
// construction time rather than silently ignored.
type Option func(*options)

// options is the normalized configuration shared by every monitor entry
// point — the single home of the defaulting rules that MonitorConfig and
// MultiMonitorConfig used to duplicate.
type options struct {
	eta              time.Duration
	predictor        string
	margin           string
	minTimeout       time.Duration
	accrualThreshold float64
	targetDetection  time.Duration
	syncClock        bool
	onChange         func(peer string, suspected bool, elapsed time.Duration)
	onSuspect        func(elapsed time.Duration)
	onTrust          func(elapsed time.Duration)
	peers            []peerSpec
	telemetry        *telemetry.Registry
	qstore           *store.Store
	// egressBatch and egressFlushInterval tune the batched egress pipeline
	// (see PipelineConfig); zero selects the transport defaults.
	egressBatch         int
	egressFlushInterval time.Duration
	// readers is the SO_REUSEPORT reader-socket count (see PipelineConfig);
	// zero selects a single reader.
	readers int
	// expectedPeers sizes the cluster monitor's scale profile (see
	// PipelineConfig.ExpectedPeers); zero selects the default geometry.
	expectedPeers int
	// pinDrivers pins the shard wheel driver goroutines to CPUs (see
	// PipelineConfig.PinDrivers); the zero value leaves them unpinned.
	pinDrivers bool
}

// scaleProfile is the geometry a cluster monitor derives from the
// expected peer count: how many ways the peer table, ingest pipeline,
// egress pipeline and router fan out, and how wide the shard timing
// wheels are. Shard counts are powers of two (lookups mask, not modulo);
// zero wheel slots select the scheduler defaults (256 fine / 64 coarse).
type scaleProfile struct {
	peerShards   int
	ingestShards int
	egressShards int
	routerShards int
	fineSlots    int
	coarseSlots  int
}

// profileFor maps an expected peer count onto a scale profile. The zero
// count (and anything up to ~32k peers) keeps the geometry every monitor
// ran with before profiles existed, so existing deployments see no
// behavior change; above that the shard counts and wheel widths grow so
// per-shard population — and with it lock contention, probe lengths and
// wheel slot occupancy — stays in the range the small tiers were tuned
// for. Capped at 64 shards: the transport's batch grouping masks touched
// shards in one uint64.
func profileFor(expectedPeers int) scaleProfile {
	switch {
	case expectedPeers > 1<<18: // the 1M tier
		return scaleProfile{
			peerShards: 64, ingestShards: 64, egressShards: 32, routerShards: 64,
			fineSlots: 1024, coarseSlots: 256,
		}
	case expectedPeers > 1<<15: // the 100k tier
		return scaleProfile{
			peerShards: 32, ingestShards: 32, egressShards: 16, routerShards: 32,
			fineSlots: 512, coarseSlots: 128,
		}
	default:
		return scaleProfile{
			peerShards: 16, ingestShards: 16, egressShards: 8, routerShards: 16,
		}
	}
}

// peerSpec is one initial cluster member.
type peerSpec struct{ name, addr string }

// DefaultMinTimeout is the adaptive-timeout floor applied when none is
// requested; it rides out the bootstrap phase on real hosts (see
// core.DetectorConfig.MinTimeout). WithMinTimeout overrides it; replay
// tooling (cmd/fdreplay) needs the exported constant to reproduce a live
// monitor's default configuration exactly.
const DefaultMinTimeout = 10 * time.Millisecond

// normalize applies the shared defaulting conventions. This is the one
// place the sentinel rules live:
//
//   - Predictor defaults to "LAST" and Margin to "JAC_med" — the paper's
//     recommended combination.
//   - MinTimeout is a three-way sentinel: zero means "use the default
//     floor" (10 ms), negative means "no floor at all" (the paper's
//     detectors, normalized to 0), positive is the floor itself.
func (o *options) normalize() {
	if o.predictor == "" {
		o.predictor = "LAST"
	}
	if o.margin == "" {
		o.margin = "JAC_med"
	}
	switch {
	case o.minTimeout == 0:
		o.minTimeout = DefaultMinTimeout
	case o.minTimeout < 0:
		o.minTimeout = 0
	}
}

// resolveOptions builds the normalized configuration for a functional-
// options entry point. Eta defaults to the paper's 1 s heartbeat period.
func resolveOptions(opts []Option) options {
	o := options{eta: time.Second}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	o.normalize()
	return o
}

// WithEta sets the heartbeat period η the monitored processes use
// (default 1 s, the paper's setting).
func WithEta(eta time.Duration) Option {
	return func(o *options) { o.eta = eta }
}

// WithPredictor selects the delay predictor (ARIMA, LAST, LPF, MEAN,
// WINMEAN; default LAST).
func WithPredictor(name string) Option {
	return func(o *options) { o.predictor = name }
}

// WithMargin selects the safety margin (CI_low/med/high, JAC_low/med/high;
// default JAC_med).
func WithMargin(name string) Option {
	return func(o *options) { o.margin = name }
}

// WithMinTimeout floors the adaptive timeout. The sentinel convention is
// documented on options.normalize: 0 selects the 10 ms default floor and a
// negative value disables the floor entirely.
func WithMinTimeout(d time.Duration) Option {
	return func(o *options) { o.minTimeout = d }
}

// WithOnChange installs the per-peer transition callback invoked on any
// suspicion change; it must not block. On a single-peer Monitor the peer
// argument is the remote address.
func WithOnChange(fn func(peer string, suspected bool, elapsed time.Duration)) Option {
	return func(o *options) { o.onChange = fn }
}

// WithOnSuspect installs a suspicion-start callback (single-peer Monitor
// form); it must not block.
func WithOnSuspect(fn func(elapsed time.Duration)) Option {
	return func(o *options) { o.onSuspect = fn }
}

// WithOnTrust installs a suspicion-end callback (single-peer Monitor
// form); it must not block.
func WithOnTrust(fn func(elapsed time.Duration)) Option {
	return func(o *options) { o.onTrust = fn }
}

// WithAccrualThreshold replaces the freshness-point detector with a
// φ-accrual detector at the given threshold (8 is the common production
// default). Only NewMonitor supports it.
func WithAccrualThreshold(phi float64) Option {
	return func(o *options) { o.accrualThreshold = phi }
}

// WithTargetDetection activates the adaptable sending period (the Bertier
// extension) aiming at the given worst-case detection time. Only
// NewMonitor supports it.
func WithTargetDetection(d time.Duration) Option {
	return func(o *options) { o.targetDetection = d }
}

// WithSyncClock estimates the peer clock offset with an NTP-style exchange
// before monitoring. Only NewMonitor supports it.
func WithSyncClock() Option {
	return func(o *options) { o.syncClock = true }
}

// WithPeer seeds a cluster monitor with one initial member; repeat for
// several. Only NewMultiMonitor supports it — more members can join later
// through AddPeer.
func WithPeer(name, addr string) Option {
	return func(o *options) { o.peers = append(o.peers, peerSpec{name: name, addr: addr}) }
}

// WithTelemetry attaches a live telemetry registry to the monitor: packet,
// dispatch and detector counters, per-peer delay and prediction-error
// histograms, running QoS gauges (P_A, E[T_M], E[T_MR]), and a bounded
// ring of suspicion-transition events. Both NewMonitor and NewMultiMonitor
// support it. Telemetry is disabled (and the hot path pays only dead
// nil-check branches) when this option is absent or reg is nil.
//
// The registry is exposed over HTTP by cmd/fdmonitor's -http mode
// (GET /metrics in Prometheus text format, GET /events as JSON Lines); see
// internal/telemetry.Mount for embedding it elsewhere.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.telemetry = reg }
}

// WithStore attaches a durable QoS store: every heartbeat delay sample and
// every suspicion transition is appended (off the hot path, through a
// bounded lock-free ring) to the store's on-disk segment log, where the
// windowed query API (Store.Query/Store.Export) can reconstruct the QoS
// metrics of any past time window. Both NewMonitor and NewMultiMonitor
// support it.
//
// The monitor does NOT close the store — one store may outlive (or be
// shared by) several monitors, so lifecycle stays with the caller: close
// the monitor first, then st.Close(). A nil st disables durable history
// (the hot path pays only a nil-check branch).
func WithStore(st *store.Store) Option {
	return func(o *options) { o.qstore = st }
}

// PipelineConfig tunes the transport pipelines. The zero value
// selects every default; fields are orthogonal, so setting one knob does
// not disturb the others.
type PipelineConfig struct {
	// EgressBatch is the maximum datagrams per egress flush (the sendmmsg
	// vector length on linux); 0 selects the transport default (64).
	EgressBatch int
	// EgressFlushInterval bounds how long a partial egress batch may wait
	// for batch-mates before being flushed anyway — the bounded one-sided
	// send delay of DESIGN.md §11. 0 (the default) flushes partial batches
	// immediately, so batching comes only from natural send bursts and
	// never delays a heartbeat.
	EgressFlushInterval time.Duration
	// Readers is the SO_REUSEPORT reader-socket (and drain-goroutine)
	// count of the batched ingest pipeline; 0 or 1 means a single reader.
	// Honoured only where SO_REUSEPORT is available (linux).
	Readers int
	// ExpectedPeers declares the cluster size a MultiMonitor is being
	// built for. It selects the monitor's scale profile — peer-table,
	// ingest, egress and router shard counts plus timing-wheel width —
	// and pre-sizes the peer tables so growing to the expected population
	// never rehashes under load. 0 keeps the default geometry (tuned for
	// up to ~32k peers); larger values widen the fan-out in steps, with
	// the top tier sized for 1M+ peers. Single-peer Monitors ignore it.
	ExpectedPeers int
	// PinDrivers pins each shard timing wheel's driver goroutine to one
	// online CPU (striped round-robin over the topology read from
	// /sys/devices/system/cpu), via runtime.LockOSThread plus
	// sched_setaffinity. At the widest scale profiles this keeps the
	// shard drivers from migrating across the socket between wakeups,
	// trading scheduler freedom for cache locality on the deadline path.
	// Honoured only on linux; elsewhere drivers are thread-locked but the
	// OS keeps placing them.
	PinDrivers bool
}

// WithPipeline applies pipeline tuning. Both NewMonitor and
// NewMultiMonitor support it; knobs for stages an entry point does not run
// are ignored.
func WithPipeline(cfg PipelineConfig) Option {
	return func(o *options) {
		if cfg.EgressBatch > 0 {
			o.egressBatch = cfg.EgressBatch
		}
		if cfg.EgressFlushInterval > 0 {
			o.egressFlushInterval = cfg.EgressFlushInterval
		}
		if cfg.Readers > 0 {
			o.readers = cfg.Readers
		}
		if cfg.ExpectedPeers > 0 {
			o.expectedPeers = cfg.ExpectedPeers
		}
		if cfg.PinDrivers {
			o.pinDrivers = true
		}
	}
}

// rejectMonitorOnly returns an error when o carries options a cluster
// monitor cannot honour.
func (o *options) rejectMonitorOnly(entry string) error {
	switch {
	case o.accrualThreshold != 0:
		return fmt.Errorf("wanfd: %s does not support WithAccrualThreshold", entry)
	case o.targetDetection != 0:
		return fmt.Errorf("wanfd: %s does not support WithTargetDetection", entry)
	case o.syncClock:
		return fmt.Errorf("wanfd: %s does not support WithSyncClock", entry)
	}
	return nil
}
