package wanfd

import (
	"fmt"
	"time"

	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
)

// MonitorConfig assembles a UDP monitor: the failure-detecting side of the
// paper's architecture on a real network.
type MonitorConfig struct {
	// Listen is the local UDP address (e.g. ":7007").
	Listen string
	// Remote is the heartbeater's UDP address.
	Remote string
	// Eta is the heartbeater's sending period.
	Eta time.Duration
	// Predictor and Margin select the detector combination (defaults:
	// the paper's recommendation LAST + JAC_med).
	Predictor, Margin string
	// AccrualThreshold, when positive, replaces the freshness-point
	// detector with a φ-accrual detector at this threshold (8 is the
	// common production default); Predictor and Margin are then ignored.
	AccrualThreshold float64
	// MinTimeout floors the adaptive timeout, riding out bootstrap and
	// timer jitter on real hosts; see WithMinTimeout for the sentinel
	// convention (zero selects the default floor, negative disables it).
	MinTimeout time.Duration
	// TargetDetection, when positive, activates the adaptable sending
	// period (the Bertier extension): the monitor periodically commands
	// the heartbeater to the largest interval that keeps the worst-case
	// detection time under this target, trading bandwidth for exactly
	// the required detection speed. Requires a freshness-point detector
	// (AccrualThreshold unset).
	TargetDetection time.Duration
	// SyncClock, when true, estimates the peer clock offset with an
	// NTP-style exchange before monitoring, discharging the paper's
	// synchronized-clocks assumption in-band.
	SyncClock bool
	// OnSuspect and OnTrust are invoked on output transitions; they must
	// not block.
	OnSuspect, OnTrust func(elapsed time.Duration)
}

// Monitor is a running UDP failure detector.
type Monitor struct {
	net   *transport.UDPNetwork
	mon   *layers.Monitor
	reg   *telemetry.Registry
	store *store.Store
}

// Process ids used by the UDP harness (one heartbeater, one monitor).
const (
	udpHeartbeaterID neko.ProcessID = 1
	udpMonitorID     neko.ProcessID = 2
)

// ListenAndMonitor opens the socket, optionally syncs clocks with the
// remote heartbeater, and starts detecting. Close must be called to release
// the socket.
func ListenAndMonitor(cfg MonitorConfig) (*Monitor, error) {
	o := options{
		eta:              cfg.Eta,
		predictor:        cfg.Predictor,
		margin:           cfg.Margin,
		minTimeout:       cfg.MinTimeout,
		accrualThreshold: cfg.AccrualThreshold,
		targetDetection:  cfg.TargetDetection,
		syncClock:        cfg.SyncClock,
		onSuspect:        cfg.OnSuspect,
		onTrust:          cfg.OnTrust,
	}
	o.normalize()
	return newUDPMonitor(cfg.Listen, cfg.Remote, o)
}

// NewMonitor is the functional-options form of ListenAndMonitor, sharing
// its option vocabulary with NewMultiMonitor:
//
//	mon, err := wanfd.NewMonitor(":7007", "host:7008",
//		wanfd.WithEta(time.Second),
//		wanfd.WithPredictor("ARIMA"), wanfd.WithMargin("CI_low"))
//
// Close must be called to release the socket.
func NewMonitor(listen, remote string, opts ...Option) (*Monitor, error) {
	o := resolveOptions(opts)
	if len(o.peers) > 0 {
		return nil, fmt.Errorf("wanfd: NewMonitor does not support WithPeer (use NewMultiMonitor)")
	}
	return newUDPMonitor(listen, remote, o)
}

func newUDPMonitor(listen, remote string, o options) (*Monitor, error) {
	if remote == "" {
		return nil, fmt.Errorf("wanfd: monitor needs the heartbeater address")
	}
	net, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID:             udpMonitorID,
		Listen:              listen,
		Peers:               map[neko.ProcessID]string{udpHeartbeaterID: remote},
		Telemetry:           o.telemetry,
		Readers:             o.readers,
		EgressBatch:         o.egressBatch,
		EgressFlushInterval: o.egressFlushInterval,
	})
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			_ = net.Close()
		}
	}()

	if o.syncClock {
		if _, err := net.SyncWith(udpHeartbeaterID, 8, 2*time.Second); err != nil {
			return nil, fmt.Errorf("wanfd: clock sync: %w", err)
		}
	}
	// One durable-store recorder for the single monitored peer, labeled by
	// the remote address like the telemetry series; nil (a no-op) without
	// WithStore.
	rec := o.qstore.Recorder(remote)
	o.qstore.Instrument(o.telemetry)
	listener := callbackListener{
		onSuspect: o.onSuspect,
		onTrust:   o.onTrust,
		onChange:  o.onChange,
		peer:      remote,
		reg:       o.telemetry,
		rec:       rec,
	}
	var consumer core.HeartbeatConsumer
	if o.accrualThreshold > 0 {
		acc, err := core.NewAccrualDetector(core.AccrualDetectorConfig{
			Threshold: o.accrualThreshold,
			Clock:     net.Clock(),
			Listener:  listener,
		})
		if err != nil {
			return nil, err
		}
		consumer = acc
	} else {
		pred, err := core.NewPredictorByName(o.predictor)
		if err != nil {
			return nil, err
		}
		margin, err := core.NewMarginByName(o.margin)
		if err != nil {
			return nil, err
		}
		det, err := core.NewDetector(core.DetectorConfig{
			Predictor:  pred,
			Margin:     margin,
			Eta:        o.eta,
			Clock:      net.Clock(),
			Listener:   listener,
			MinTimeout: o.minTimeout,
			Metrics:    o.telemetry.DetectorMetrics(remote),
			Sample:     rec,
		})
		if err != nil {
			return nil, err
		}
		// State the detector tracks anyway is sampled at scrape time
		// rather than pushed per heartbeat.
		o.telemetry.DetectorFuncs(remote,
			func() (uint64, uint64, uint64) {
				st := det.DetectorStats()
				return st.Heartbeats, st.Stale, st.Suspicions
			},
			func() float64 { return det.CurrentTimeout() / 1e3 },
			det.Suspected,
		)
		consumer = det
	}
	mon, err := layers.NewConsumerMonitor(consumer)
	if err != nil {
		return nil, err
	}
	stack := []neko.Layer{mon}
	if o.targetDetection > 0 {
		det := mon.Detector()
		if det == nil {
			return nil, fmt.Errorf("wanfd: TargetDetection requires a freshness-point detector (unset AccrualThreshold)")
		}
		ctrl, err := layers.NewIntervalController(layers.IntervalControllerConfig{
			Detector:        det,
			TargetDetection: o.targetDetection,
			Peer:            udpHeartbeaterID,
		})
		if err != nil {
			return nil, err
		}
		stack = []neko.Layer{ctrl, mon}
	}
	proc, err := neko.NewProcess(udpMonitorID, net.Clock(), net, stack...)
	if err != nil {
		return nil, err
	}
	if err := proc.Start(); err != nil {
		return nil, err
	}
	ok = true
	return &Monitor{net: net, mon: mon, reg: o.telemetry, store: o.qstore}, nil
}

// Suspected reports the detector's current output.
func (m *Monitor) Suspected() bool { return m.mon.Consumer().Suspected() }

// Timeout returns the current adaptive timeout of a freshness-point
// detector; for a φ-accrual monitor it returns 0 (use Phi instead).
func (m *Monitor) Timeout() time.Duration {
	det := m.mon.Detector()
	if det == nil {
		return 0
	}
	return time.Duration(det.CurrentTimeout() * float64(time.Millisecond))
}

// Phi returns the φ-accrual suspicion level, or 0 for a freshness-point
// monitor.
func (m *Monitor) Phi() float64 {
	if acc, ok := m.mon.Consumer().(*core.AccrualDetector); ok {
		return acc.Phi()
	}
	return 0
}

// ClockOffset returns the estimated peer clock offset (0 if SyncClock was
// not requested).
func (m *Monitor) ClockOffset() time.Duration { return m.net.Offset(udpHeartbeaterID) }

// DetectorStats returns a snapshot of the detector's lifetime counters
// (zero for consumer kinds that expose none).
func (m *Monitor) DetectorStats() DetectorStats {
	if s, ok := m.mon.Consumer().(StatsProvider); ok {
		return s.DetectorStats()
	}
	return DetectorStats{}
}

// Close stops the detector and releases the socket.
func (m *Monitor) Close() error {
	m.mon.Stop()
	return m.net.Close()
}

// HeartbeaterConfig assembles a UDP heartbeater: the monitored side.
type HeartbeaterConfig struct {
	// Listen is the local UDP address (also answers clock-sync requests).
	Listen string
	// Remote is the monitor's UDP address.
	Remote string
	// Remotes are additional monitor addresses. With more than one remote
	// in total the heartbeater runs a HeartbeaterGroup: every monitor gets
	// its own η-grid, phase-staggered across the interval, and the grids
	// drain through the transport's batched egress pipeline (one sendmmsg
	// per flush) instead of one write syscall per monitor per cycle.
	Remotes []string
	// Eta is the sending period.
	Eta time.Duration
}

// Heartbeater is a running UDP heartbeat sender serving one or more
// monitors.
type Heartbeater struct {
	net *transport.UDPNetwork
	hb  *layers.Heartbeater      // single-monitor form
	grp *layers.HeartbeaterGroup // multi-monitor form
}

// RunHeartbeater opens the socket and starts sending heartbeats every Eta
// to every configured monitor. Close must be called to stop sending and
// release the socket.
func RunHeartbeater(cfg HeartbeaterConfig) (*Heartbeater, error) {
	remotes := make([]string, 0, 1+len(cfg.Remotes))
	if cfg.Remote != "" {
		remotes = append(remotes, cfg.Remote)
	}
	remotes = append(remotes, cfg.Remotes...)
	if len(remotes) == 0 {
		return nil, fmt.Errorf("wanfd: heartbeater needs the monitor address")
	}
	peers := make(map[neko.ProcessID]string, len(remotes))
	for i, addr := range remotes {
		peers[udpMonitorID+neko.ProcessID(i)] = addr
	}
	net, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID: udpHeartbeaterID,
		Listen:  cfg.Listen,
		Peers:   peers,
	})
	if err != nil {
		return nil, err
	}
	h := &Heartbeater{net: net}
	// Number cycles on the shared wall-clock grid (σ_i = i·η) so a
	// restarted heartbeater resumes with fresh sequence numbers.
	startSeq := net.WallTime().UnixNano() / int64(cfg.Eta)
	var top neko.Layer
	if len(remotes) == 1 {
		hb, err := layers.NewHeartbeater(udpMonitorID, cfg.Eta)
		if err != nil {
			_ = net.Close()
			return nil, err
		}
		if err := hb.SetStartSeq(startSeq); err != nil {
			_ = net.Close()
			return nil, err
		}
		h.hb, top = hb, hb
	} else {
		grp, err := layers.NewHeartbeaterGroup(cfg.Eta)
		if err != nil {
			_ = net.Close()
			return nil, err
		}
		for i := range remotes {
			if err := grp.Add(udpMonitorID+neko.ProcessID(i), startSeq); err != nil {
				_ = net.Close()
				return nil, err
			}
		}
		h.grp, top = grp, grp
	}
	proc, err := neko.NewProcess(udpHeartbeaterID, net.Clock(), net, top)
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	if err := proc.Start(); err != nil {
		_ = net.Close()
		return nil, err
	}
	return h, nil
}

// Sent returns the number of heartbeats emitted (summed over all monitors
// in the multi-monitor form).
func (h *Heartbeater) Sent() uint64 {
	if h.grp != nil {
		return h.grp.Sent()
	}
	return h.hb.Sent()
}

// LocalAddr returns the bound UDP address string.
func (h *Heartbeater) LocalAddr() string { return h.net.LocalAddr().String() }

// Close stops sending and releases the socket.
func (h *Heartbeater) Close() error {
	if h.grp != nil {
		h.grp.Stop()
	} else {
		h.hb.Stop()
	}
	return h.net.Close()
}

// LocalAddr returns the monitor's bound UDP address string.
func (m *Monitor) LocalAddr() string { return m.net.LocalAddr().String() }

// Telemetry returns the registry the monitor was built with (nil without
// WithTelemetry).
func (m *Monitor) Telemetry() *telemetry.Registry { return m.reg }
