//fdlint:file-ignore clockuse the benchmark times calls into each module on the real wall clock

package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/core"
	"wanfd/internal/layers"
	"wanfd/internal/neko"
	"wanfd/internal/nekostat"
	"wanfd/internal/sched"
	"wanfd/internal/sim"
	"wanfd/internal/store"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
	"wanfd/internal/wan"
)

// maxTimedOps caps the calls one layer timing makes; the inputs cycle
// through the live run's sends in the order the generator wrote them.
const maxTimedOps = 1 << 18

// timer accumulates one layer timing.
type timer struct {
	start time.Time
}

func startTimer() timer { return timer{start: time.Now()} }

// per is the elapsed time per op in the given unit (ns per unit).
func (t timer) per(ops int, unit time.Duration) float64 {
	return float64(time.Since(t.start)) / float64(max(1, ops)) / float64(unit)
}

// settle yields until cond holds, or gives up after settleTimeout.
func settle(cond func() bool) bool {
	deadline := time.Now().Add(settleTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// settleTimeout bounds a wait on another goroutine inside a layer timing.
const settleTimeout = 10 * time.Second

// countingReceiver stands in for the layer above the one being timed.
type countingReceiver struct{ n atomic.Int64 }

func (r *countingReceiver) Receive(*neko.Message) { r.n.Add(1) }

func (r *countingReceiver) ReceiveAt(*neko.Message, time.Duration) { r.n.Add(1) }

func (r *countingReceiver) ReceiveBatch(ms []*neko.Message, _ time.Duration) {
	r.n.Add(int64(len(ms)))
}

// profile is the part of the monitor's scale profile the layer timings
// run at: shard fan-out (peer, ingest and router shards alike) and the
// shard wheels' slot geometry. It copies profileFor in the root package's
// options.go, which is private; zero slots keep the wheel's default
// 256/64 geometry.
type profile struct{ shards, fineSlots, coarseSlots int }

func profileOf(cfg liveConfig) profile {
	if cfg.expected > 1<<15 {
		return profile{shards: 32, fineSlots: 512, coarseSlots: 128}
	}
	return profile{shards: 16}
}

// newWheels builds the profile's shard wheels on one shared real clock.
func (p profile) newWheels() []*sched.Wheel {
	clk := sim.NewRealClock()
	ws := make([]*sched.Wheel, p.shards)
	for i := range ws {
		ws[i] = sched.NewWheel(sched.Config{Clock: clk, FineSlots: p.fineSlots, CoarseSlots: p.coarseSlots})
	}
	return ws
}

// wheelOf is the shard wheel peer i's deadlines run on: the monitor picks
// it by the FNV-1a hash of the peer's name.
func (p profile) wheelOf(i int) int {
	h := uint64(14695981039346656037)
	name := peerName(i)
	for k := 0; k < len(name); k++ {
		h ^= uint64(name[k])
		h *= 1099511628211
	}
	return int(h & uint64(p.shards-1))
}

func closeWheels(ws []*sched.Wheel) {
	for _, w := range ws {
		w.Close()
	}
}

// layerTimings times calls into each internal module's exported functions
// at the workload's population, driven by the live run's own sends.
func layerTimings(cfg liveConfig, lr *liveResult, reg *telemetry.Registry, seed int64, work string) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	sends := lr.sends
	if len(sends) > maxTimedOps {
		sends = sends[:maxTimedOps]
	}
	if len(sends) == 0 {
		return nil, fmt.Errorf("layer timings need the live run's sends")
	}
	for _, f := range []func(liveConfig, []sendRec, func(string, string, float64)) error{
		timeTransport, timeRouter, timeDetector, timeWheel,
	} {
		if err := f(cfg, sends, put); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	if err := timeTelemetry(cfg, reg, put); err != nil {
		return nil, err
	}
	if err := timeStore(cfg, sends, work, put); err != nil {
		return nil, err
	}
	if err := timeEgress(cfg, put); err != nil {
		return nil, err
	}
	if err := timeGridModules(seed, put); err != nil {
		return nil, err
	}
	return m, nil
}

// timeTransport times the receive path: Injector.InjectBatch through a
// transport endpoint holding the workload's peers, plain DecodeInto, and
// the arena address table lookup behind attribution.
func timeTransport(cfg liveConfig, sends []sendRec, put func(string, string, float64)) error {
	n, err := transport.NewUDPNetwork(transport.UDPConfig{
		LocalID: 1000, Listen: "127.0.0.1:0", ExpectedPeers: cfg.registered(),
		IngestShards: profileOf(cfg).shards,
	})
	if err != nil {
		return err
	}
	defer n.Close()
	for i := 0; i < cfg.registered(); i++ {
		if err := n.AddPeer(neko.ProcessID(1001+i), peerAddr(i, 9)); err != nil {
			return err
		}
	}
	rcv := &countingReceiver{}
	if _, err := n.Attach(1000, rcv); err != nil {
		return err
	}
	pkts := make([][]byte, len(sends))
	srcs := make([]netip.AddrPort, len(sends))
	msg := &neko.Message{Type: neko.MsgHeartbeat, From: 1, To: 1000}
	for j, s := range sends {
		msg.Seq = int64(s.cycle)
		if pkts[j], err = transport.Encode(nil, msg, s.write); err != nil {
			return err
		}
		srcs[j] = netip.MustParseAddrPort(peerAddr(int(s.peer), 9))
	}

	inj := n.NewInjector()
	t := startTimer()
	for j := 0; j < len(pkts); j += 64 {
		k := min(j+64, len(pkts))
		inj.InjectBatch(pkts[j:k], srcs[j:k])
		// Bound the run-ahead so the shard rings never overflow.
		if !settle(func() bool { return int64(k)-rcv.n.Load() <= 2048 }) {
			return fmt.Errorf("injected packets stopped reaching the receiver")
		}
	}
	if !settle(func() bool { return rcv.n.Load() == int64(len(pkts)) }) {
		return fmt.Errorf("receiver got %d of %d injected packets", rcv.n.Load(), len(pkts))
	}
	put("transport.inject_ns", "ns", t.per(len(pkts), time.Nanosecond))

	dm := &neko.Message{}
	t = startTimer()
	for _, p := range pkts {
		if _, err := transport.DecodeInto(dm, p); err != nil {
			return err
		}
	}
	put("transport.decode_ns", "ns", t.per(len(pkts), time.Nanosecond))

	tab := arena.NewMap64(cfg.registered())
	for i := 0; i < cfg.registered(); i++ {
		tab.Put(addrKey(i), arena.Index(i))
	}
	keys := make([]uint64, len(sends))
	for j, s := range sends {
		keys[j] = addrKey(int(s.peer))
	}
	hits := 0
	t = startTimer()
	for _, k := range keys {
		if _, ok := tab.Get(k); ok {
			hits++
		}
	}
	put("arena.find_ns", "ns", t.per(len(keys), time.Nanosecond))
	if hits != len(keys) {
		return fmt.Errorf("arena table lost %d keys", len(keys)-hits)
	}
	return nil
}

// addrKey packs peer i's IPv4 source address and port into one table key,
// the shape the transport's attribution table is keyed by.
func addrKey(i int) uint64 {
	ip := peerIP(i)
	return uint64(ip[0])<<40 | uint64(ip[1])<<32 | uint64(ip[2])<<24 | uint64(ip[3])<<16 | 9
}

// timeRouter times Router.ReceiveBatch over drain-sized batches.
func timeRouter(cfg liveConfig, sends []sendRec, put func(string, string, float64)) error {
	r := layers.NewRouterSharded(profileOf(cfg).shards)
	rcv := &countingReceiver{}
	for i := 0; i < cfg.registered(); i++ {
		if err := r.Route(neko.ProcessID(1001+i), rcv); err != nil {
			return err
		}
	}
	msgs := make([]*neko.Message, len(sends))
	for j, s := range sends {
		msgs[j] = &neko.Message{Type: neko.MsgHeartbeat, From: neko.ProcessID(1001 + int(s.peer)), Seq: int64(s.cycle)}
	}
	t := startTimer()
	for j := 0; j < len(msgs); j += 64 {
		r.ReceiveBatch(msgs[j:min(j+64, len(msgs))], time.Duration(j))
	}
	put("layers.route_ns", "ns", t.per(len(msgs), time.Nanosecond))
	if rcv.n.Load() != int64(len(msgs)) {
		return fmt.Errorf("router delivered %d of %d", rcv.n.Load(), len(msgs))
	}
	return nil
}

// timeDetector times Detector.OnHeartbeat (LAST+JAC_med with the
// workload's η and floor, re-arming on the profile's real-clock shard
// wheels) for the workload's population.
func timeDetector(cfg liveConfig, sends []sendRec, put func(string, string, float64)) error {
	prof := profileOf(cfg)
	ws := prof.newWheels()
	defer closeWheels(ws)
	dets := make([]*core.Detector, cfg.registered())
	for i := range dets {
		pred, err := core.NewPredictorByName("LAST")
		if err != nil {
			return err
		}
		margin, err := core.NewMarginByName("JAC_med")
		if err != nil {
			return err
		}
		if dets[i], err = core.NewDetector(core.DetectorConfig{
			Predictor: pred, Margin: margin, Eta: cfg.eta, Clock: ws[prof.wheelOf(i)], MinTimeout: cfg.floor,
		}); err != nil {
			return err
		}
	}
	defer func() {
		for _, d := range dets {
			d.Stop()
		}
	}()
	base := ws[0].Now()
	t := startTimer()
	for j, s := range sends {
		now := base + time.Duration(j)*time.Microsecond
		dets[s.peer].OnHeartbeat(int64(s.cycle), now-50*time.Microsecond, now)
	}
	put("core.on_heartbeat_ns", "ns", t.per(len(sends), time.Nanosecond))
	return nil
}

// timeWheel times Timer.RescheduleAt on the profile's shard wheels
// holding one armed deadline per heartbeating peer (silent peers arm
// none), each re-armed η+δ ahead as a fresh heartbeat would.
func timeWheel(cfg liveConfig, sends []sendRec, put func(string, string, float64)) error {
	prof := profileOf(cfg)
	ws := prof.newWheels()
	defer closeWheels(ws)
	timers := make([]sched.Rearmable, cfg.peers)
	now := ws[0].Now()
	for i := range timers {
		timers[i] = ws[prof.wheelOf(i)].NewTimer(func() {})
		timers[i].RescheduleAt(now+cfg.eta+cfg.floor, now)
	}
	t := startTimer()
	for j, s := range sends {
		at := now + time.Duration(j)*time.Microsecond
		timers[s.peer].RescheduleAt(at+cfg.eta+cfg.floor, at)
	}
	put("sched.rearm_ns", "ns", t.per(len(sends), time.Nanosecond))
	for _, tm := range timers {
		tm.Stop()
	}
	return nil
}

// timeTelemetry times RecordTransition and DropSeries on the live run's
// registry, or on a fresh one holding the population's series when the
// workload runs without telemetry.
func timeTelemetry(cfg liveConfig, reg *telemetry.Registry, put func(string, string, float64)) error {
	if reg == nil {
		reg = telemetry.NewRegistry(1024)
		for i := 0; i < cfg.registered(); i++ {
			registerPeerSeries(reg, peerName(i))
		}
	}
	const transitions = 1 << 16
	names := make([]string, min(cfg.registered(), transitions))
	for i := range names {
		names[i] = peerName(i)
	}
	t := startTimer()
	for j := 0; j < transitions; j++ {
		reg.RecordTransition(names[j%len(names)], j%2 == 0, time.Duration(j)*time.Millisecond)
	}
	put("telemetry.record_transition_ns", "ns", t.per(transitions, time.Nanosecond))
	var drops []float64
	for j := 0; j < 9; j++ {
		name := fmt.Sprintf("timed%d", j)
		registerPeerSeries(reg, name)
		t := startTimer()
		reg.DropSeries("peer", name)
		drops = append(drops, t.per(1, time.Microsecond))
	}
	put("telemetry.drop_series_us", "us", medianF(drops))
	return nil
}

// registerPeerSeries registers the series a monitor registers per peer.
func registerPeerSeries(reg *telemetry.Registry, name string) {
	reg.DetectorMetrics(name)
	reg.DetectorFuncs(name,
		func() (uint64, uint64, uint64) { return 0, 0, 0 },
		func() float64 { return 0 },
		func() bool { return false })
}

// timeStore times PeerRecorder.Sample pushes into a store's ring.
func timeStore(cfg liveConfig, sends []sendRec, work string, put func(string, string, float64)) error {
	dir := filepath.Join(work, "store-timed")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(store.Config{Dir: dir, Queue: 1 << 16})
	if err != nil {
		return err
	}
	defer st.Close()
	recs := make([]*store.PeerRecorder, cfg.registered())
	for i := range recs {
		recs[i] = st.Recorder(peerName(i))
	}
	t := startTimer()
	for j, s := range sends {
		at := time.Duration(s.write)
		recs[s.peer].Sample(int64(s.cycle), at, at+time.Duration(j%100)*time.Microsecond)
	}
	put("store.sample_ns", "ns", t.per(len(sends), time.Nanosecond))
	return nil
}

// timeEgress times the batched send path: one transport endpoint sending
// one heartbeat to each of the workload's remotes per round, flushed by
// its egress pipeline to a local sink socket. A workload without a node
// heartbeater times a single remote.
func timeEgress(cfg liveConfig, put func(string, string, float64)) error {
	sinkConn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return err
	}
	port := sinkConn.LocalAddr().(*net.UDPAddr).Port
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		buf := make([]byte, 2048)
		for {
			if _, _, err := sinkConn.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	defer func() {
		sinkConn.Close()
		<-drained
	}()
	remotes := max(1, cfg.remotes)
	peers := make(map[neko.ProcessID]string, remotes)
	for i := 0; i < remotes; i++ {
		peers[neko.ProcessID(2+i)] = remoteAddr(i, port)
	}
	n, err := transport.NewUDPNetwork(transport.UDPConfig{LocalID: 1, Listen: "127.0.0.1:0", Peers: peers})
	if err != nil {
		return err
	}
	defer n.Close()
	snd, err := n.Attach(1, &countingReceiver{})
	if err != nil {
		return err
	}
	rounds := max(1, maxTimedOps/4/remotes)
	total := uint64(rounds * remotes)
	settled := func() uint64 {
		st := n.EgressStats()
		return st.Packets + st.RingDrops + st.SendErrors
	}
	t := startTimer()
	for r := 0; r < rounds; r++ {
		for i := 0; i < remotes; i++ {
			snd.Send(&neko.Message{From: 1, To: neko.ProcessID(2 + i), Type: neko.MsgHeartbeat, Seq: int64(r)})
		}
		if !settle(func() bool { return settled() >= uint64((r+1)*remotes) }) {
			return fmt.Errorf("egress settled %d of %d datagrams", settled(), (r+1)*remotes)
		}
	}
	put("egress.send_ns", "ns", t.per(int(total), time.Nanosecond))
	st := n.EgressStats()
	put("egress.batch_mean", "count", float64(st.Packets)/float64(max(1, st.Flushes)))
	put("egress.syscalls_saved_per_hb", "count/hb", float64(st.SyscallsSaved)/float64(max(1, st.Packets)))
	put("egress.ring_drops", "count", float64(st.RingDrops))
	put("egress.send_errors", "count", float64(st.SendErrors))
	return nil
}

// timeGridModules times the modules the QoS grid runs on: the WAN channel
// model, the ARIMA predictor, one heartbeat through all 30 detectors over
// the discrete-event engine, the engine's event queue on its own, and the
// QoS analyzer over the detectors' transitions.
func timeGridModules(seed int64, put func(string, string, float64)) error {
	const n = 10000
	eta := time.Second
	ch, err := wan.NewPresetChannel(wan.PresetItalyJapan, seed, "wirebench")
	if err != nil {
		return err
	}
	t := startTimer()
	for i := 0; i < n; i++ {
		ch.Transmit(time.Duration(i) * eta)
	}
	put("wan.delay_ns", "ns", t.per(n, time.Nanosecond))

	fresh, err := wan.NewPresetChannel(wan.PresetItalyJapan, seed, "wirebench")
	if err != nil {
		return err
	}
	delays, err := wan.CollectDelays(fresh, n, eta)
	if err != nil {
		return err
	}
	arima, err := core.NewPredictorByName("ARIMA")
	if err != nil {
		return err
	}
	t = startTimer()
	for _, d := range delays {
		arima.Observe(float64(d) / 1e6)
	}
	put("arima.observe_ns", "ns", t.per(len(delays), time.Nanosecond))

	eng := sim.NewEngine()
	col := nekostat.NewCollector()
	var dets []*core.Detector
	for _, c := range core.AllCombos() {
		pred, err := core.NewPredictorByName(c.Predictor)
		if err != nil {
			return err
		}
		margin, err := core.NewMarginByName(c.Margin)
		if err != nil {
			return err
		}
		d, err := core.NewDetector(core.DetectorConfig{
			Name: c.Predictor + "+" + c.Margin, Predictor: pred, Margin: margin,
			Eta: eta, Clock: eng, Listener: col,
		})
		if err != nil {
			return err
		}
		dets = append(dets, d)
	}
	t = startTimer()
	for i, d := range delays {
		send := time.Duration(i) * eta
		recv := send + d
		if err := eng.Run(recv); err != nil {
			return err
		}
		for _, det := range dets {
			det.OnHeartbeat(int64(i), send, recv)
		}
	}
	put("core.grid_step_ns", "ns", t.per(len(delays), time.Nanosecond))
	horizon := time.Duration(len(delays)) * eta

	q := sim.NewEngine()
	rng := rand.New(rand.NewSource(seed))
	const events = 1 << 16
	fired := 0
	t = startTimer()
	for i := 0; i < events; i++ {
		q.At(time.Duration(rng.Int63n(int64(time.Hour))), func() { fired++ })
	}
	if err := q.RunAll(); err != nil {
		return err
	}
	put("sim.event_ns", "ns", t.per(events, time.Nanosecond))
	if fired != events {
		return fmt.Errorf("sim engine fired %d of %d events", fired, events)
	}

	evs := col.Events()
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
	t = startTimer()
	for _, d := range dets {
		if _, err := nekostat.QoSFromEvents(evs, d.Name(), 0, horizon); err != nil {
			return err
		}
	}
	put("nekostat.qos_ms", "ms", t.per(len(dets), time.Millisecond))
	return nil
}

// layerMetrics assembles the traced run's per-layer metrics: spans from
// the store export, counters from Stats() and /proc, the layer timings,
// and the tracing overhead against the untraced half.
func layerMetrics(lv, untraced *liveResult, timed map[string]metric) map[string]metric {
	m := map[string]metric{}
	for k, v := range timed {
		m[k] = v
	}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	hbs := float64(max(1, lv.gen.Sends))
	st := lv.stats
	sp := lv.spans
	wire, disp := summarize(sp.wire), summarize(sp.dispatch)
	fire, notify := summarize(sp.fireLate), summarize(sp.notify)

	put("transport.batch_mean", "count", float64(lv.counted)/float64(max(1, st.Ingest.Drains)))
	put("transport.wire_p50_us", "us", us(wire.p50))
	put("transport.wire_p99_us", "us", us(wire.p99))
	put("transport.socket_drops", "count", float64(lv.sockDrops))
	put("transport.ring_drops", "count", float64(st.Ingest.RingDrops))
	put("transport.pool_misses", "count", float64(st.Ingest.PoolMisses))
	put("layers.dispatch_p50_us", "us", us(disp.p50))
	put("layers.dispatch_p99_us", "us", us(disp.p99))
	put("sched.fire_late_p50_us", "us", us(fire.p50))
	put("sched.fire_late_p99_us", "us", us(fire.p99))
	put("sched.fired", "count", float64(st.Scheduler.Fired))
	put("sched.wakeups", "count", float64(st.Scheduler.Wakeups))
	put("sched.fires_per_wakeup", "count", float64(st.Scheduler.Fired)/float64(max(1, st.Scheduler.Wakeups)))
	put("sched.cascades", "count", float64(st.Scheduler.Cascades))
	put("core.notify_p99_us", "us", us(notify.p99))
	put("core.stale", "count", float64(st.Detector.Stale))
	put("core.delta_above_floor", "count", float64(lv.deltaBad))
	put("telemetry.series", "count", float64(lv.series))
	put("telemetry.scrape_bytes", "B", float64(lv.scrapeB))
	put("store.records_written", "count", float64(st.Store.Records))
	put("store.drops", "count", float64(st.Store.Dropped))
	put("proc.vol_ctx_switches_per_hb", "count/hb", float64(lv.ctxSw)/hbs)
	put("proc.cpu_user_s", "s", lv.cpuUser)
	put("proc.cpu_sys_s", "s", lv.cpuSys)
	put("proc.gc_cycles", "count", float64(lv.gcCycles))
	put("proc.gc_pause_ms", "ms", float64(lv.gcPauseNs)/1e6)
	put("proc.heap_inuse_mb", "MB", float64(lv.heapInuse)/(1<<20))
	put("proc.goroutines", "count", float64(lv.goroutine))
	put("gen.late_p99_us", "us", us(lv.gen.LateP99))
	put("gen.cpu_us_per_hb", "us", lv.gen.CPUSec/hbs*1e6)
	if untraced != nil {
		latencyMetrics(untraced, put)
		ut, us0 := summarize(lats(untraced.oracle.trust)), summarize(lats(untraced.oracle.suspect))
		tt, ts := summarize(lats(lv.oracle.trust)), summarize(lats(lv.oracle.suspect))
		put("trace.overhead_trust_p50_us", "us", us(tt.p50-ut.p50))
		put("trace.overhead_suspect_late_p50_us", "us", us(ts.p50-us0.p50))
	}
	return m
}
