package wanfd

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/core"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
)

// MultiMonitorConfig assembles a monitor that watches several heartbeating
// peers over one UDP socket, with one failure detector per peer. Peers are
// identified by their source address, so every remote just runs a plain
// fdheartbeat/RunHeartbeater pointed at this monitor.
//
// New code should prefer NewMultiMonitor with functional options, which
// additionally starts with an empty (or seeded) peer set and grows and
// shrinks it at runtime through AddPeer/RemovePeer.
type MultiMonitorConfig struct {
	// Listen is the local UDP address.
	Listen string
	// Peers maps a peer name (free-form, used in callbacks and queries)
	// to its heartbeater UDP address.
	Peers map[string]string
	// Eta is the heartbeat period all peers use.
	Eta time.Duration
	// Predictor and Margin select the detector combination used for every
	// peer (defaults LAST + JAC_med).
	Predictor, Margin string
	// OnChange, when non-nil, is invoked on any peer's suspicion
	// transition; it must not block.
	OnChange func(peer string, suspected bool, elapsed time.Duration)
	// MinTimeout floors the adaptive timeout; see WithMinTimeout for the
	// sentinel convention.
	MinTimeout time.Duration
}

// PeerStatus is one peer's current detector state. The lifetime counters
// are the embedded DetectorStats fields.
type PeerStatus struct {
	// Peer is the configured peer name.
	Peer string
	// Suspected is the detector's current output.
	Suspected bool
	// Timeout is the current adaptive timeout.
	Timeout time.Duration
	// DetectorStats carries the Heartbeats, Stale and Suspicions counters.
	DetectorStats
}

// ClusterSnapshot is an aggregate view of a MultiMonitor: membership size,
// how many peers are currently trusted or suspected, the summed detector
// counters, and the per-peer breakdown. It marshals directly to JSON for
// the fdmonitor HTTP endpoint.
type ClusterSnapshot struct {
	// Uptime is the time since the monitor started.
	Uptime time.Duration
	// Peers is the current membership size.
	Peers int
	// Trusted and Suspected count the peers by detector output.
	Trusted, Suspected int
	// Totals sums every peer's detector counters.
	Totals DetectorStats
	// PeerStatuses is the per-peer breakdown, sorted by name. Snapshot
	// leaves it empty (the aggregate fields above cost no per-peer
	// allocation, so /stats stays cheap at 1M peers); SnapshotDetail
	// fills it in.
	PeerStatuses []PeerStatus `json:",omitempty"`
}

// peerNameHash hashes a peer name with an inline 64-bit FNV-1a
// (allocation-free on the query path, unlike hash/fnv over a copied
// name). The low bits pick the shard; the full hash keys the shard's
// open-addressed table, where names that collide on the hash coexist and
// are disambiguated by string comparison.
func peerNameHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// peerEntry is one live member: its transport identity and its detector.
type peerEntry struct {
	name string
	addr string
	id   neko.ProcessID
	det  *core.Detector
}

// peerShard is one lane of the cluster. A peer's shard is chosen once,
// from its name hash, and every layer uses it: the low bits of the peer's
// transport id carry it, so the transport queues the peer's datagrams on
// ingest ring s; shard s's consumer resolves them here; the detector arms
// its deadline on wheels[s]. Entries live in an index-addressed arena; tab
// maps name hashes and ids maps transport ids to arena indices (see
// internal/arena). A *peerEntry from ents is only valid while mu is held —
// RemovePeer frees and zeroes the record under the write lock — so read
// paths copy what they need out before unlocking.
type peerShard struct {
	mu   sync.RWMutex
	tab  *arena.Map64
	ids  *arena.Map64
	ents *arena.Arena[peerEntry]
}

// find resolves a name to its arena index. Callers hold mu.
func (s *peerShard) find(h uint64, name string) (arena.Index, bool) {
	return s.tab.Find(h, func(i arena.Index) bool { return s.ents.Get(i).name == name })
}

// MultiMonitor is a running multi-peer UDP failure detector with dynamic
// membership: AddPeer and RemovePeer change the monitored set at runtime
// without dropping the socket or perturbing other peers' timers. All
// methods are safe for concurrent use.
type MultiMonitor struct {
	net *transport.UDPNetwork
	// out is the endpoint's send half, returned when the monitor attached
	// as its receiver. A monitor only receives in production; the
	// pipeline benchmarks send through it.
	out  neko.Sender
	opts options
	// nextID counts peer ids; a peer's id is the count shifted above its
	// shard (see peerID). Monotonic, so ids are never reused.
	nextID    atomic.Int64
	shards    []peerShard
	shardMask uint64
	// wheels are the per-shard timing wheels all peer deadlines run on:
	// shard i's detectors schedule on wheels[i], so the whole cluster
	// expires timers on at most len(shards) lazy driver goroutines.
	wheels []*sched.Wheel

	// Cluster-level telemetry; every field is nil (a no-op) when the
	// monitor was built without WithTelemetry.
	mPeers       *telemetry.Gauge
	mPeerAdds    *telemetry.Counter
	mPeerRemoves *telemetry.Counter
	mUnrouted    *telemetry.Counter
}

// multiMonitorID is the local process id of the multi-monitor; peers get
// ids above it.
const multiMonitorID neko.ProcessID = 1000

// peerShardBits is how many low bits of a peer id carry the peer's shard:
// enough for the widest profile's 64 shards.
const peerShardBits = 6

// peerID allocates a fresh transport id on shard s. The low bits select
// the same ingest ring as the shard (the transport masks the id with its
// shard count, which equals the monitor's), and the count above them keeps
// ids unique and never reused. Ids must fit the wire's int32 process ids.
func (m *MultiMonitor) peerID(s uint64) (neko.ProcessID, error) {
	c := m.nextID.Add(1)
	if c > math.MaxInt32>>peerShardBits {
		return 0, fmt.Errorf("wanfd: peer id space exhausted")
	}
	return neko.ProcessID(c<<peerShardBits | int64(s)), nil
}

type namedListener struct {
	name     string
	onChange func(peer string, suspected bool, elapsed time.Duration)
	reg      *telemetry.Registry
	rec      *store.PeerRecorder
}

func (l namedListener) OnSuspect(_ string, at time.Duration) {
	l.reg.RecordTransition(l.name, true, at)
	l.rec.Transition(true, at)
	if l.onChange != nil {
		l.onChange(l.name, true, at)
	}
}

func (l namedListener) OnTrust(_ string, at time.Duration) {
	l.reg.RecordTransition(l.name, false, at)
	l.rec.Transition(false, at)
	if l.onChange != nil {
		l.onChange(l.name, false, at)
	}
}

// NewMultiMonitor opens the socket and starts a cluster monitor over any
// peers seeded with WithPeer; more join and leave at runtime through
// AddPeer/RemovePeer. Close must be called to release the socket.
func NewMultiMonitor(listen string, opts ...Option) (*MultiMonitor, error) {
	return newMultiMonitor(listen, resolveOptions(opts))
}

func newMultiMonitor(listen string, o options) (*MultiMonitor, error) {
	if err := o.rejectMonitorOnly("NewMultiMonitor"); err != nil {
		return nil, err
	}
	// Validate the detector recipe once up front, so a bad predictor or
	// margin name fails at construction even with an empty initial set.
	if _, err := core.NewPredictorByName(o.predictor); err != nil {
		return nil, err
	}
	if _, err := core.NewMarginByName(o.margin); err != nil {
		return nil, err
	}
	prof := profileFor(o.expectedPeers)
	net, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID:             multiMonitorID,
		Listen:              listen,
		Telemetry:           o.telemetry,
		Readers:             o.readers,
		EgressBatch:         o.egressBatch,
		EgressFlushInterval: o.egressFlushInterval,
		IngestShards:        prof.shards,
		ExpectedPeers:       o.expectedPeers,
	})
	if err != nil {
		return nil, err
	}
	mm := &MultiMonitor{
		net:       net,
		opts:      o,
		shards:    make([]peerShard, prof.shards),
		shardMask: uint64(prof.shards - 1),
	}
	o.qstore.Instrument(o.telemetry)
	if reg := o.telemetry; reg != nil {
		mm.mPeers = reg.Gauge(telemetry.MetricPeers, "Current cluster membership size.")
		mm.mPeerAdds = reg.Counter(telemetry.MetricPeerAdds, "Peers added to the cluster monitor.")
		mm.mPeerRemoves = reg.Counter(telemetry.MetricPeerRemoves, "Peers removed from the cluster monitor.")
		mm.mUnrouted = reg.Counter(telemetry.MetricRouterUnrouted,
			"Messages from unknown or removed peer ids, dropped at dispatch.")
	}
	// Peer ids start above the monitor's own.
	mm.nextID.Store(int64(multiMonitorID) >> peerShardBits)
	// Pre-size each shard's tables for its cut of the expected population.
	perShard := o.expectedPeers / prof.shards
	for i := range mm.shards {
		mm.shards[i].tab = arena.NewMap64(perShard)
		mm.shards[i].ids = arena.NewMap64(perShard)
		mm.shards[i].ents = arena.New[peerEntry]()
	}
	var onBatch func(int, time.Duration)
	if reg := o.telemetry; reg != nil {
		lag := reg.Histogram(telemetry.MetricSchedBatchLag,
			"Lag between the earliest deadline in an expiry batch and its collection.", nil)
		// Histogram.Observe is lock-free, so concurrent shard drivers
		// may share one series.
		onBatch = func(_ int, l time.Duration) { lag.Observe(l.Seconds()) }
	}
	var cpus []int
	if o.pinDrivers {
		cpus = sched.OnlineCPUs()
	}
	mm.wheels = make([]*sched.Wheel, prof.shards)
	for i := range mm.wheels {
		cfg := sched.Config{
			Clock:       net.Clock(),
			OnBatch:     onBatch,
			FineSlots:   prof.fineSlots,
			CoarseSlots: prof.coarseSlots,
		}
		if len(cpus) > 0 {
			// Stripe shard drivers round-robin over the online CPUs so
			// the widest profiles (64 wheels) spread across the socket
			// and each driver stays put between wakeups.
			cfg.PinCPU = cpus[i%len(cpus)] + 1
		}
		mm.wheels[i] = sched.NewWheel(cfg)
	}
	if reg := o.telemetry; reg != nil {
		reg.GaugeFunc(telemetry.MetricSchedTimers,
			"Deadlines currently queued across the shard timing wheels.",
			func() float64 { return float64(mm.SchedulerStats().Timers) })
		reg.CounterFunc(telemetry.MetricSchedFired,
			"Timing-wheel timers expired.",
			func() float64 { return float64(mm.SchedulerStats().Fired) })
		reg.CounterFunc(telemetry.MetricSchedCascades,
			"Timers migrated between timing-wheel levels.",
			func() float64 { return float64(mm.SchedulerStats().Cascades) })
		reg.GaugeFunc(telemetry.MetricSchedMaxSlot,
			"High-water mark of deadlines sharing one wheel slot on any shard.",
			func() float64 { return float64(mm.SchedulerStats().MaxSlotOccupancy) })
		reg.CounterFunc(telemetry.MetricSchedSlotsSkipped,
			"Empty wheel slots crossed by bitmap skip-scan instead of probing.",
			func() float64 { return float64(mm.SchedulerStats().SlotsSkipped) })
		reg.CounterFunc(telemetry.MetricSchedWakeups,
			"Shard driver advances (coalesced to occupied ticks).",
			func() float64 { return float64(mm.SchedulerStats().Wakeups) })
		reg.GaugeFunc(telemetry.MetricSchedFineOccupied,
			"Fine-level wheel slots currently holding deadlines, summed over shards.",
			func() float64 { return float64(mm.SchedulerStats().FineSlotsOccupied) })
		reg.GaugeFunc(telemetry.MetricSchedCoarseOccupied,
			"Coarse-level wheel slots currently holding deadlines, summed over shards.",
			func() float64 { return float64(mm.SchedulerStats().CoarseSlotsOccupied) })
		reg.GaugeFunc(telemetry.MetricSchedOverflow,
			"Deadlines parked beyond the wheel horizon, summed over shards.",
			func() float64 { return float64(mm.SchedulerStats().OverflowTimers) })
	}
	if mm.out, err = net.Attach(multiMonitorID, ingress{mm}); err != nil {
		_ = net.Close()
		return nil, err
	}
	for _, p := range o.peers {
		if err := mm.AddPeer(p.name, p.addr); err != nil {
			_ = mm.Close()
			return nil, err
		}
	}
	return mm, nil
}

// ListenAndMonitorMany opens the socket and starts one detector per
// configured peer. Close must be called to release the socket.
//
// It is a thin wrapper over NewMultiMonitor kept for compatibility; unlike
// NewMultiMonitor it insists on a non-empty initial peer set.
func ListenAndMonitorMany(cfg MultiMonitorConfig) (*MultiMonitor, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("wanfd: multi-monitor needs at least one peer")
	}
	o := options{
		eta:        cfg.Eta,
		predictor:  cfg.Predictor,
		margin:     cfg.Margin,
		minTimeout: cfg.MinTimeout,
		onChange:   cfg.OnChange,
	}
	o.normalize()
	// Seed in sorted order so process ids are deterministic for a given
	// configuration, as they were when the peer set was frozen.
	names := make([]string, 0, len(cfg.Peers))
	for name := range cfg.Peers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o.peers = append(o.peers, peerSpec{name: name, addr: cfg.Peers[name]})
	}
	return newMultiMonitor(cfg.Listen, o)
}

// AddPeer starts monitoring one more peer, identified by the source
// address its heartbeats will arrive from. The peer gets a fresh detector
// and a fresh process id — re-adding a previously removed name never
// resurrects old suspicion state. Names and addresses must be unique
// within the cluster.
func (m *MultiMonitor) AddPeer(name, addr string) error {
	if name == "" {
		return fmt.Errorf("wanfd: empty peer name")
	}
	// Build the detector before touching the shard, so the critical section
	// dispatch, queries and same-shard membership changes contend with is
	// only the publication below, not the construction.
	pred, err := core.NewPredictorByName(m.opts.predictor)
	if err != nil {
		return err
	}
	margin, err := core.NewMarginByName(m.opts.margin)
	if err != nil {
		return err
	}
	// One durable-store recorder per peer: the detector taps it for every
	// heartbeat sample, the listener for every transition. Nil (a no-op)
	// when the monitor was built without WithStore.
	rec := m.opts.qstore.Recorder(name)
	// The peer's shard is chosen here, once: its deadlines run on the
	// shard's timing wheel and its id routes its datagrams to the shard's
	// ingest ring.
	h := peerNameHash(name)
	si := h & m.shardMask
	det, err := core.NewDetector(core.DetectorConfig{
		Name:       name,
		Predictor:  pred,
		Margin:     margin,
		Eta:        m.opts.eta,
		Clock:      m.wheels[si],
		Listener:   namedListener{name: name, onChange: m.opts.onChange, reg: m.opts.telemetry, rec: rec},
		MinTimeout: m.opts.minTimeout,
		Metrics:    m.opts.telemetry.DetectorMetrics(name),
		Sample:     rec,
	})
	// A failure from here on retires the series DetectorMetrics just
	// registered unless the name is live: a duplicate's registry handed
	// back the live member's own counters.
	if err != nil {
		m.retireUnlessLive(si, h, name)
		return err
	}
	// Register the address before taking the shard lock, which guards
	// heartbeat dispatch: resolving a hostname may block, and the
	// transport's table takes its own global write lock. Until the entry is
	// published below, datagrams from addr miss at dispatch and are counted
	// unrouted, like those of any peer not yet added.
	id, err := m.peerID(si)
	if err == nil {
		err = m.net.AddPeer(id, addr)
	}
	if err != nil {
		det.Stop()
		m.retireUnlessLive(si, h, name)
		return err
	}
	s := &m.shards[si]
	s.mu.Lock()
	if _, dup := s.find(h, name); dup {
		s.mu.Unlock()
		_ = m.net.RemovePeer(id)
		det.Stop()
		return fmt.Errorf("wanfd: peer %q already monitored", name)
	}
	idx, e := s.ents.Alloc()
	*e = peerEntry{name: name, addr: addr, id: id, det: det}
	s.tab.Put(h, idx)
	s.ids.Put(uint64(id), idx)
	// State the detector tracks anyway is sampled at scrape time, not
	// pushed per heartbeat; RemovePeer's DropSeries retires the callbacks.
	// Registered under the shard lock, so a concurrent duplicate can never
	// replace the live member's callbacks.
	m.opts.telemetry.DetectorFuncs(name,
		func() (uint64, uint64, uint64) {
			st := det.DetectorStats()
			return st.Heartbeats, st.Stale, st.Suspicions
		},
		func() float64 { return det.CurrentTimeout() / 1e3 },
		det.Suspected,
	)
	s.mu.Unlock()
	m.mPeerAdds.Inc()
	m.mPeers.Add(1)
	return nil
}

// retireUnlessLive retires a rejected name's series unless a live member
// holds them. The check and the drop share the shard lock, so a member
// published concurrently under the same name keeps its series.
func (m *MultiMonitor) retireUnlessLive(si, h uint64, name string) {
	s := &m.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, live := s.find(h, name); !live {
		m.dropSeries(name)
	}
}

// RemovePeer stops monitoring a peer and tears its detector down. Other
// peers' detectors and timers are untouched; packets still in flight from
// the removed peer are ignored.
func (m *MultiMonitor) RemovePeer(name string) error {
	h := peerNameHash(name)
	s := &m.shards[h&m.shardMask]
	s.mu.Lock()
	var e peerEntry
	idx, ok := s.tab.Remove(h, func(i arena.Index) bool { return s.ents.Get(i).name == name })
	if ok {
		// Copy the entry out before freeing: Free zeroes the record, and
		// the teardown below runs outside the shard lock.
		e = *s.ents.Get(idx)
		s.ids.Delete(uint64(e.id))
		s.ents.Free(idx)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("wanfd: unknown peer %q", name)
	}
	// The id left the shard table above, so datagrams still in flight
	// miss at dispatch from now on. Then unregister the address and stop
	// the detector: a heartbeat already resolved before the removal is
	// discarded by the stopped detector itself.
	_ = m.net.RemovePeer(e.id)
	e.det.Stop()
	m.mPeerRemoves.Inc()
	m.mPeers.Add(-1)
	// Retire the peer's series and running QoS state so churn does not
	// grow the exposition without bound; re-added names start fresh,
	// matching the fresh-detector semantics.
	m.dropSeries(name)
	return nil
}

// ingress attaches the monitor to its transport as the batch receiver,
// without adding a method to MultiMonitor. Every batch comes from one
// ingest shard's consumer.
type ingress struct{ m *MultiMonitor }

func (in ingress) Receive(msg *neko.Message) {
	in.m.dispatch([]*neko.Message{msg}, in.m.net.Clock().Now())
}

func (in ingress) ReceiveBatch(ms []*neko.Message, at time.Duration) { in.m.dispatch(ms, at) }

// dispatch feeds one same-stamp batch of received messages to the peers'
// detectors. A message's shard is the low bits of its sender id — the
// same bits that chose its ingest ring — so shard s's consumer only reads
// shard s. Each run of same-sender messages is resolved once, under the
// shard's read lock; the detector is called after unlocking, since its
// listener may call back into AddPeer or RemovePeer. Ids that resolve to
// no member (never added, or removed while their datagrams were in
// flight) are dropped and counted unrouted.
func (m *MultiMonitor) dispatch(ms []*neko.Message, at time.Duration) {
	for i := 0; i < len(ms); {
		from := ms[i].From
		s := &m.shards[uint64(uint32(from))&m.shardMask]
		var det *core.Detector
		s.mu.RLock()
		if idx, ok := s.ids.Get(uint64(from)); ok {
			det = s.ents.Get(idx).det
		}
		s.mu.RUnlock()
		for ; i < len(ms) && ms[i].From == from; i++ {
			switch {
			case det == nil:
				m.mUnrouted.Inc()
			case ms[i].Type == neko.MsgHeartbeat:
				det.OnHeartbeat(ms[i].Seq, ms[i].SentAt, at)
			}
		}
	}
}

// dropSeries retires a peer name's telemetry series and running QoS
// state.
func (m *MultiMonitor) dropSeries(name string) {
	if reg := m.opts.telemetry; reg != nil {
		reg.DropSeries("peer", name)
		reg.QoS().RemovePeer(name)
	}
}

// SchedulerStats is an aggregate snapshot of a cluster monitor's shard
// timing wheels.
type SchedulerStats struct {
	// Wheels is the number of shard wheels.
	Wheels int
	// Timers is the number of deadlines currently queued.
	Timers int
	// Fired, Batches and Cascades are lifetime totals: timers expired,
	// non-empty expiry batches, and timers migrated between wheel levels.
	Fired, Batches, Cascades uint64
	// MaxSlotOccupancy is the highest number of deadlines that ever shared
	// one wheel slot on any shard.
	MaxSlotOccupancy int
	// FineSlotsOccupied and CoarseSlotsOccupied sum, over the shards, the
	// wheel slots whose lists are currently non-empty; OverflowTimers sums
	// the deadlines parked beyond the wheel horizon.
	FineSlotsOccupied   int
	CoarseSlotsOccupied int
	OverflowTimers      int
	// SlotsSkipped counts empty slots the bitmap skip-scan crossed without
	// probing; Wakeups counts driver advances after coalescing to occupied
	// ticks.
	SlotsSkipped uint64
	Wakeups      uint64
}

// WheelStats is one shard wheel's counter snapshot, as returned by
// SchedulerStatsDetail.
type WheelStats = sched.Stats

// SchedulerStats aggregates the shard wheels' counters.
func (m *MultiMonitor) SchedulerStats() SchedulerStats {
	var out SchedulerStats
	for _, w := range m.wheels {
		s := w.Stats()
		out.Wheels++
		out.Timers += s.Scheduled
		out.Fired += s.Fired
		out.Batches += s.Batches
		out.Cascades += s.Cascades
		if s.MaxSlotOccupancy > out.MaxSlotOccupancy {
			out.MaxSlotOccupancy = s.MaxSlotOccupancy
		}
		out.FineSlotsOccupied += s.FineSlotsOccupied
		out.CoarseSlotsOccupied += s.CoarseSlotsOccupied
		out.OverflowTimers += s.OverflowTimers
		out.SlotsSkipped += s.SlotsSkipped
		out.Wakeups += s.Wakeups
	}
	return out
}

// SchedulerStatsDetail returns each shard wheel's own snapshot, indexed by
// shard, for occupancy and skip-scan analysis at the per-wheel grain the
// aggregate hides. Like the table SnapshotDetail convention from the peer
// state layer, the per-shard breakdown is opt-in: SchedulerStats stays the
// cheap aggregate view.
func (m *MultiMonitor) SchedulerStatsDetail() []WheelStats {
	out := make([]WheelStats, len(m.wheels))
	for i, w := range m.wheels {
		out[i] = w.Stats()
	}
	return out
}

// lookup finds a live peer entry, returned by value: the arena record is
// only stable under the shard lock (a concurrent RemovePeer frees and
// zeroes it), but the copied detector pointer stays a valid heap object.
func (m *MultiMonitor) lookup(name string) (peerEntry, bool) {
	h := peerNameHash(name)
	s := &m.shards[h&m.shardMask]
	s.mu.RLock()
	defer s.mu.RUnlock()
	if idx, ok := s.find(h, name); ok {
		return *s.ents.Get(idx), true
	}
	return peerEntry{}, false
}

// Suspected reports whether the named peer is currently suspected; unknown
// peers report an error.
func (m *MultiMonitor) Suspected(peer string) (bool, error) {
	e, ok := m.lookup(peer)
	if !ok {
		return false, fmt.Errorf("wanfd: unknown peer %q", peer)
	}
	return e.det.Suspected(), nil
}

// PeerStatusOf returns one peer's full status; unknown peers report an
// error.
func (m *MultiMonitor) PeerStatusOf(peer string) (PeerStatus, error) {
	e, ok := m.lookup(peer)
	if !ok {
		return PeerStatus{}, fmt.Errorf("wanfd: unknown peer %q", peer)
	}
	return e.status(), nil
}

// status builds the PeerStatus of one live entry.
func (e *peerEntry) status() PeerStatus {
	return PeerStatus{
		Peer:          e.name,
		Suspected:     e.det.Suspected(),
		Timeout:       time.Duration(e.det.CurrentTimeout() * float64(time.Millisecond)),
		DetectorStats: e.det.DetectorStats(),
	}
}

// entries snapshots the live peer entries, by value, shard by shard.
func (m *MultiMonitor) entries() []peerEntry {
	out := make([]peerEntry, 0, m.Peers())
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		s.ents.Range(func(_ arena.Index, e *peerEntry) bool {
			out = append(out, *e)
			return true
		})
		s.mu.RUnlock()
	}
	return out
}

// Status returns every peer's state, sorted by peer name. Membership may
// change concurrently; the result is a consistent per-peer (not
// cross-peer) snapshot. Statuses are built shard by shard in one pass —
// the detector's own lock nests safely under a shard read lock.
func (m *MultiMonitor) Status() []PeerStatus {
	out := make([]PeerStatus, 0, m.Peers())
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		s.ents.Range(func(_ arena.Index, e *peerEntry) bool {
			out = append(out, e.status())
			return true
		})
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Peers returns the current membership size.
func (m *MultiMonitor) Peers() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += s.ents.Len()
		s.mu.RUnlock()
	}
	return n
}

// Snapshot aggregates the whole cluster: counts by output, summed
// counters, and uptime. It reads every detector but materializes no
// per-peer state — constant allocation regardless of membership size, so
// a stats endpoint polling it stays cheap at 1M peers. SnapshotDetail
// adds the per-peer breakdown.
func (m *MultiMonitor) Snapshot() ClusterSnapshot {
	snap := m.totals()
	snap.Uptime = m.net.Clock().Now()
	return snap
}

// totals walks the peer arenas in place, counting peers by output and
// summing their detector counters — no per-peer materialization, so it
// allocates the same at 1M peers as at 10. It fills Peers, Trusted,
// Suspected and Totals.
func (m *MultiMonitor) totals() ClusterSnapshot {
	var snap ClusterSnapshot
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		s.ents.Range(func(_ arena.Index, e *peerEntry) bool {
			snap.Peers++
			if e.det.Suspected() {
				snap.Suspected++
			} else {
				snap.Trusted++
			}
			st := e.det.DetectorStats()
			snap.Totals.Heartbeats += st.Heartbeats
			snap.Totals.Stale += st.Stale
			snap.Totals.Suspicions += st.Suspicions
			return true
		})
		s.mu.RUnlock()
	}
	return snap
}

// SnapshotDetail is Snapshot plus the per-peer breakdown, sorted by name.
// It allocates O(peers); prefer Snapshot for periodic polling at scale.
func (m *MultiMonitor) SnapshotDetail() ClusterSnapshot {
	st := m.Status()
	snap := ClusterSnapshot{
		Uptime:       m.net.Clock().Now(),
		Peers:        len(st),
		PeerStatuses: st,
	}
	for _, s := range st {
		if s.Suspected {
			snap.Suspected++
		} else {
			snap.Trusted++
		}
		snap.Totals.Heartbeats += s.Heartbeats
		snap.Totals.Stale += s.Stale
		snap.Totals.Suspicions += s.Suspicions
	}
	return snap
}

// LocalAddr returns the bound UDP address string.
func (m *MultiMonitor) LocalAddr() string { return m.net.LocalAddr().String() }

// Telemetry returns the registry the monitor was built with (nil without
// WithTelemetry).
func (m *MultiMonitor) Telemetry() *telemetry.Registry { return m.opts.telemetry }

// Close stops every detector, shuts the shard timing wheels down, and
// releases the socket.
func (m *MultiMonitor) Close() error {
	for _, e := range m.entries() {
		e.det.Stop()
	}
	for _, w := range m.wheels {
		w.Close()
	}
	return m.net.Close()
}
