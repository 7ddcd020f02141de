package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wanfd"
	"wanfd/internal/telemetry"
)

// liveConfig is one live scenario: a MultiMonitor fed by the generator
// process over loopback UDP while the operator surface (membership churn,
// /metrics scrapes, the node's own heartbeater) runs against it.
type liveConfig struct {
	// peers heartbeat on the schedule; silent more are registered but
	// never heartbeat, so they fill the monitor's tables, telemetry and
	// exposition without adding load on the socket.
	peers, silent int
	eta, floor    time.Duration
	probeEvery    int
	// telemetry attaches a registry; without one /metrics serves the
	// empty exposition.
	telemetry bool
	// store attaches a durable store in the untraced run; the traced run
	// always attaches one, since its spans come from Store.Export.
	store bool
	// expected selects the monitor's scale profile (0: default profile).
	expected int
	// churnEvery is the period of one AddPeer of a silent pool peer plus
	// one RemovePeer of the pool peer added churnLife earlier.
	churnEvery, churnLife time.Duration
	// memberPairs, on a workload without churn, is how many AddPeer plus
	// RemovePeer pairs run back to back once the window has ended, so the
	// membership figures exist without loading the window.
	memberPairs int
	scrapeEvery time.Duration
	remotes     int
	remoteEta   time.Duration
	// setups is how many times set-up is measured; the last monitor built
	// runs the scenario.
	setups int
	// grace is how long after the window transitions are still collected
	// and in-flight heartbeats still counted.
	grace time.Duration
}

// event is one OnChange delivery.
type event struct {
	peer int32
	susp bool
	at   int64 // transition instant on the monitor's clock
	c    int64 // wall instant the callback ran
}

// recorder collects OnChange deliveries into a preallocated slice; the
// callback runs under the detector's lock on ingest and wheel goroutines,
// so it only reads the clock and claims a slot.
type recorder struct {
	clk     wallClock
	ev      []event
	n       atomic.Int64
	stopAt  atomic.Int64
	dropped atomic.Int64
}

func (r *recorder) onChange(peer string, susp bool, at time.Duration) {
	c := r.clk.now()
	if c >= r.stopAt.Load() {
		return
	}
	i, ok := peerIndex(peer)
	if !ok {
		return
	}
	j := r.n.Add(1) - 1
	if j >= int64(len(r.ev)) {
		r.dropped.Add(1)
		return
	}
	r.ev[j] = event{peer: int32(i), susp: susp, at: int64(at), c: c}
}

func (r *recorder) events() []event {
	n := r.n.Load()
	if n > int64(len(r.ev)) {
		n = int64(len(r.ev))
	}
	return r.ev[:n]
}

// liveResult is everything a live run measured.
type liveResult struct {
	setupS  []float64
	oracle  oracleResult
	gen     genSummary
	sends   []sendRec
	cpuUser float64
	cpuSys  float64
	// cpuUsPerHB is the median over the window's CPU slices of the
	// process's CPU time per heartbeat offered (see cpuSlice).
	cpuUsPerHB  float64
	ctxSw       int64
	adds        []int64
	removes     []int64
	memberErr   int
	scrapes     []int64
	scrapeTries int
	scrapeErr   int
	scrapeB     int
	series      int
	hbOutSent   uint64
	stats       wanfd.Stats
	counted     uint64
	sockDrops   int64
	deltaBad    int
	evDropped   int64
	gcCycles    uint32
	gcPauseNs   uint64
	heapInuse   uint64
	goroutine   int
	// exported is set when the run's store window was exported;
	// storeEarly then counts its suspicions that precede their freshness
	// point.
	exported   bool
	storeEarly int
	// spans is filled by traced runs only, apart from the export's size.
	spans spanResult
}

// freePort reserves and releases a loopback UDP port.
func freePort(ip net.IP) (int, error) {
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: ip})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.LocalAddr().(*net.UDPAddr).Port, nil
}

// runLive runs one live scenario for dur and returns its raw figures.
// afterRun, when non-nil, runs once the monitor is closed, with the
// registry it used (nil without telemetry).
func runLive(cfg liveConfig, seed int64, dur time.Duration, traced bool, work string,
	afterRun func(*liveResult, *telemetry.Registry) error) (*liveResult, error) {
	clk := newWallClock()
	res := &liveResult{}
	genPort, err := freePort(net.IPv4(127, 0, 0, 1))
	if err != nil {
		return nil, err
	}
	sinkPort := 0
	if cfg.remotes > 0 {
		if sinkPort, err = freePort(net.IPv4zero); err != nil {
			return nil, err
		}
	}
	p := newPlan(cfg.peers, cfg.eta, cfg.probeEvery, seed)
	rec := &recorder{clk: clk, ev: make([]event, eventCap(cfg, p, dur))}
	rec.stopAt.Store(1<<63 - 1)

	var (
		mm  *wanfd.MultiMonitor
		reg *telemetry.Registry
		st  *wanfd.Store
	)
	closeMon := func() {
		if mm != nil {
			_ = mm.Close()
		}
		if st != nil {
			_ = st.Close()
		}
		mm, st = nil, nil
	}
	defer closeMon()
	for r := 0; r < cfg.setups; r++ {
		closeMon()
		runtime.GC()
		t := clk.now()
		reg = nil
		if cfg.telemetry {
			reg = telemetry.NewRegistry(1024)
		}
		opts := []wanfd.Option{
			wanfd.WithEta(cfg.eta),
			wanfd.WithMinTimeout(cfg.floor),
			wanfd.WithOnChange(rec.onChange),
			wanfd.WithTelemetry(reg),
		}
		if cfg.expected > 0 {
			opts = append(opts, wanfd.WithPipeline(wanfd.PipelineConfig{ExpectedPeers: cfg.expected}))
		}
		if cfg.store || traced {
			dir := filepath.Join(work, fmt.Sprintf("store-%d", r))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			st, err = wanfd.OpenStore(wanfd.StoreConfig{Dir: dir, Queue: 1 << 16})
			if err != nil {
				return nil, err
			}
			opts = append(opts, wanfd.WithStore(st))
		}
		mm, err = wanfd.NewMultiMonitor("127.0.0.1:0", opts...)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.registered(); i++ {
			if err := mm.AddPeer(peerName(i), peerAddr(i, genPort)); err != nil {
				return nil, err
			}
		}
		res.setupS = append(res.setupS, float64(clk.now()-t)/1e9)
	}
	monPort := mm.LocalAddr()
	// Collect set-up's garbage now, so no collection of the fleet-sized
	// heap is left to land inside the window.
	runtime.GC()

	// The operator's /metrics endpoint.
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: telemetry.MetricsHandler(reg), ReadHeaderTimeout: 10 * time.Second}
	srvDone := make(chan struct{})
	go func() {
		defer close(srvDone)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Shutdown(context.Background())
		<-srvDone
	}()

	// The generator process.
	gcfg := genConfig{
		Peers: cfg.peers, Eta: cfg.eta, ProbeEvery: cfg.probeEvery, Seed: seed,
		Dur: dur, Port: genPort, Target: monPort, SinkPort: sinkPort,
	}
	gen, err := startGenerator(gcfg, clk)
	if err != nil {
		return nil, err
	}
	defer gen.kill()
	t0, end := gen.cfg.T0, gen.cfg.T0+int64(dur)

	var hb *wanfd.Heartbeater
	if cfg.remotes > 0 {
		remotes := make([]string, cfg.remotes)
		for i := range remotes {
			remotes[i] = remoteAddr(i, sinkPort)
		}
		hb, err = wanfd.RunHeartbeater(wanfd.HeartbeaterConfig{
			Listen: "127.0.0.1:0", Remotes: remotes, Eta: cfg.remoteEta,
		})
		if err != nil {
			return nil, err
		}
		defer func() {
			if hb != nil {
				_ = hb.Close()
			}
		}()
	}

	var ms0 runtime.MemStats
	clk.sleepUntil(t0)
	u0, s0 := cpuTimes()
	ctx0 := volCtxSwitches()
	runtime.ReadMemStats(&ms0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		churn(mm, cfg, genPort, clk, stop, res)
	}()
	go func() {
		defer wg.Done()
		scrape(ln.Addr().String(), cfg.scrapeEvery, clk, stop, res)
	}()
	go func() {
		defer wg.Done()
		clk.sleepUntil(t0 + int64(dur)/2)
		res.deltaBad = spotCheckDelta(mm, p, cfg.floor)
	}()

	slice := cfg.cpuSlice(dur)
	cpuAt := []float64{u0 + s0}
	for at := t0 + int64(slice); at <= end; at += int64(slice) {
		clk.sleepUntil(at)
		cpuAt = append(cpuAt, cpuSeconds())
	}
	clk.sleepUntil(end)
	u1, s1 := cpuTimes()
	ctx1 := volCtxSwitches()
	close(stop)
	wg.Wait()
	res.cpuUser, res.cpuSys = u1-u0, s1-s0
	res.ctxSw = ctx1 - ctx0

	clk.sleepUntil(end + int64(cfg.grace))
	rec.stopAt.Store(end + int64(cfg.grace))
	if hb != nil {
		_ = hb.Close()
		res.hbOutSent = hb.Sent()
		hb = nil
		time.Sleep(50 * time.Millisecond)
	}
	res.gen, res.sends, err = gen.finish()
	if err != nil {
		return nil, err
	}
	res.cpuUsPerHB = cpuPerHeartbeat(cpuAt, res.sends, t0, slice)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	res.heapInuse = ms1.HeapInuse
	res.goroutine = runtime.NumGoroutine()
	res.stats = mm.Stats()
	res.counted = res.stats.Detector.Heartbeats
	res.sockDrops = udpDrops(uint16(portOf(monPort)))
	if st != nil {
		if err := exportWindow(res, st, cfg, traced); err != nil {
			return nil, err
		}
	}
	if cfg.churnEvery <= 0 {
		// An untimed pass (each peer removed as soon as it is added) lets
		// the allocator and the tables settle first, and the garbage is
		// collected, so no collection runs alongside the phase's few
		// milliseconds.
		warm := &churner{mm: mm, port: genPort, clk: clk, res: &liveResult{}}
		for k := 0; k < cfg.memberPairs; k++ {
			warm.step()
		}
		runtime.GC()
		c := &churner{mm: mm, lag: memberLag, port: genPort, clk: clk, res: res}
		for k := 0; k < cfg.memberPairs+memberLag; k++ {
			c.step()
		}
	}
	closeMon()
	res.evDropped = rec.dropped.Load()
	res.oracle = runOracle(p, cfg.eta, cfg.floor, t0, end, res.sends, rec.events())
	if traced {
		res.spans.split(res.oracle, cfg.eta, cfg.floor)
	}
	if afterRun != nil {
		if err := afterRun(res, reg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cpuSlice is the length of the slices the window's CPU time is read in:
// the scrape period where there is one, so that every slice holds one
// scrape, the same number of churn steps and whole heartbeater rounds, and
// one second otherwise; the whole window when it is shorter.
func (cfg liveConfig) cpuSlice(dur time.Duration) time.Duration {
	return min(max(cfg.scrapeEvery, time.Second), dur)
}

// cpuPerHeartbeat is the median over slices of the CPU time spent in the
// slice (µs) per heartbeat that fell due in it. A median over slices, not
// one window-long ratio, so that a burst of the host's CPU steal or a
// slower spell of its cores moves one slice rather than the result.
func cpuPerHeartbeat(cpuAt []float64, sends []sendRec, t0 int64, slice time.Duration) float64 {
	n := make([]int, len(cpuAt)-1)
	for _, s := range sends {
		if k := (s.due - t0) / int64(slice); s.due >= t0 && k < int64(len(n)) {
			n[k]++
		}
	}
	per := make([]float64, 0, len(n))
	for k, c := range n {
		per = append(per, (cpuAt[k+1]-cpuAt[k])/float64(max(1, c))*1e6)
	}
	return medianF(per)
}

// registered is the monitor's population: heartbeating and silent peers.
func (cfg liveConfig) registered() int { return cfg.peers + cfg.silent }

// eventCap bounds the transitions a run can deliver: at most one
// suspicion and one trust per heartbeat sent, plus end-of-run suspicions.
func eventCap(cfg liveConfig, p *plan, dur time.Duration) int {
	return 2*int(p.cycles(dur+cfg.grace))*cfg.peers + 2*cfg.peers + 1024
}

func portOf(addr string) int {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return 0
	}
	return int(ap.Port())
}

// memberLag is how many pool peers the membership phase after the window
// keeps registered: each RemovePeer drops the peer added memberLag calls
// earlier.
const memberLag = 32

// churner adds silent pool peers and removes each one lag additions
// later, timing every public call.
type churner struct {
	mm   *wanfd.MultiMonitor
	lag  int
	port int
	clk  wallClock
	res  *liveResult
	live []string
	i    int
}

// step makes one AddPeer and, once lag peers are live, one RemovePeer.
func (c *churner) step() {
	name := fmt.Sprintf("c%d", c.i)
	t := c.clk.now()
	err := c.mm.AddPeer(name, churnAddr(c.i, c.port))
	c.res.adds = append(c.res.adds, c.clk.now()-t)
	c.i++
	if err != nil {
		c.res.memberErr++
	} else {
		c.live = append(c.live, name)
	}
	if len(c.live) > c.lag {
		t := c.clk.now()
		err := c.mm.RemovePeer(c.live[0])
		c.res.removes = append(c.res.removes, c.clk.now()-t)
		if err != nil {
			c.res.memberErr++
		}
		c.live = c.live[1:]
	}
}

// churn steps a churner every churnEvery while the window runs, with a
// lag of churnLife.
func churn(mm *wanfd.MultiMonitor, cfg liveConfig, port int, clk wallClock, stop <-chan struct{}, res *liveResult) {
	if cfg.churnEvery <= 0 {
		return
	}
	c := &churner{mm: mm, lag: int(cfg.churnLife / cfg.churnEvery), port: port, clk: clk, res: res}
	// Half a period off the window's grid, so no step races its end and
	// every run makes the same number of calls.
	next := clk.now() - int64(cfg.churnEvery)/2
	for {
		next += int64(cfg.churnEvery)
		if !clk.waitUntil(next, stop) {
			return
		}
		c.step()
	}
}

// scrape GETs /metrics on a fixed period, timing the full response.
func scrape(addr string, every time.Duration, clk wallClock, stop <-chan struct{}, res *liveResult) {
	if every <= 0 {
		return
	}
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/metrics"
	// Half a period off the window's grid, as in churn.
	next := clk.now() - int64(every)/2
	for {
		next += int64(every)
		if !clk.waitUntil(next, stop) {
			return
		}
		res.scrapeTries++
		t := clk.now()
		resp, err := client.Get(url)
		if err != nil {
			res.scrapeErr++
			continue
		}
		cw := &lineCounter{}
		_, err = io.Copy(cw, resp.Body)
		_ = resp.Body.Close()
		res.scrapes = append(res.scrapes, clk.now()-t)
		if err != nil || resp.StatusCode != http.StatusOK {
			res.scrapeErr++
			continue
		}
		res.scrapeB, res.series = cw.bytes, cw.samples
	}
}

// lineCounter counts bytes and sample lines (non-comment lines) of an
// exposition as it streams past.
type lineCounter struct {
	bytes, samples int
	midLine        bool
	comment        bool
}

func (w *lineCounter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	for _, c := range b {
		if !w.midLine {
			w.midLine = true
			w.comment = c == '#'
		}
		if c == '\n' {
			if !w.comment {
				w.samples++
			}
			w.midLine = false
		}
	}
	return len(b), nil
}

// spotCheckDelta reads the timeout of a sample of peers through
// PeerStatusOf and counts those whose δ is not the configured floor, the
// δ the oracle's freshness points assume.
func spotCheckDelta(mm *wanfd.MultiMonitor, p *plan, floor time.Duration) int {
	bad := 0
	for _, i := range p.order[:min(32, len(p.order))] {
		st, err := mm.PeerStatusOf(peerName(i))
		if err != nil || st.Timeout != floor {
			bad++
		}
	}
	return bad
}

// generator is the running generator child process.
type generator struct {
	cfg   genConfig
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

func startGenerator(cfg genConfig, clk wallClock) (*generator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "gen")
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", min(2, runtime.NumCPU())))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	g := &generator{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}
	// The config goes over stdin as one JSON line; the generator answers
	// "ready" once its sockets are open. The start instant leaves room for
	// that, so start-up never eats into the schedule.
	cfg.T0 = clk.now() + int64(700*time.Millisecond)
	g.cfg = cfg
	if err := json.NewEncoder(stdin).Encode(cfg); err != nil {
		g.kill()
		return nil, err
	}
	line, err := g.out.ReadString('\n')
	if err != nil || line != "ready\n" {
		g.kill()
		return nil, fmt.Errorf("generator did not start: %q %v", line, err)
	}
	if clk.now() > cfg.T0-int64(200*time.Millisecond) {
		g.kill()
		return nil, fmt.Errorf("generator start-up overran its start instant")
	}
	return g, nil
}

// finish tells the generator to report, reads the report and reaps it.
func (g *generator) finish() (genSummary, []sendRec, error) {
	_ = g.stdin.Close()
	sum, recs, err := readGenerator(g.out)
	if werr := g.cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("generator: %w", werr)
	}
	g.cmd = nil
	return sum, recs, err
}

func (g *generator) kill() {
	if g.cmd == nil {
		return
	}
	_ = g.cmd.Process.Kill()
	_ = g.cmd.Wait()
	g.cmd = nil
}
