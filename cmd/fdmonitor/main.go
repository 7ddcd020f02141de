// Command fdmonitor runs the failure-detecting side of the paper's
// architecture on a real network: it listens for UDP heartbeats and logs
// suspicion transitions.
//
// Single-peer mode watches one fdheartbeat process:
//
//	fdmonitor -listen :7007 -remote host:7008 -eta 1s
//	fdmonitor -listen :7007 -remote host:7008 -predictor ARIMA -margin CI_low -sync
//	fdmonitor -listen :7007 -remote host:7008 -http :7070
//
// Cluster mode watches a whole fleet over the same socket, one detector
// per peer, and optionally serves the aggregate state over HTTP:
//
//	fdmonitor -listen :7007 -peers api=10.0.0.1:7008,db=10.0.0.2:7008 -http :7070
//
// The HTTP endpoint exposes the live monitor:
//
//	GET    /cluster[?detail=1]            aggregate ClusterSnapshot; detail=1 adds per-peer rows (JSON, cluster mode)
//	POST   /cluster/peers?name=N&addr=A   start monitoring one more peer (cluster mode)
//	DELETE /cluster/peers?name=N          stop monitoring a peer (cluster mode)
//	GET    /status                        one-peer status (JSON, single-peer mode)
//	GET    /stats                         unified monitor snapshot (JSON, both modes)
//	GET    /metrics                       live telemetry, Prometheus text format
//	GET    /events[?n=N]                  last N suspicion transitions, JSON Lines
//	GET    /qos?from=1m&to=5m[&peer=N]    windowed QoS over the durable history (JSON)
//	GET    /export?from=1m[&peer=N]       replayable binary window (feed to fdreplay)
//	GET    /debug/pprof/                  net/http/pprof profiler
//	GET    /debug/vars                    expvar
//
// With -store-dir the monitor appends every heartbeat delay sample and
// suspicion transition to a durable on-disk store, which /qos and /export
// query; -store-max-bytes and -store-max-age bound retention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"wanfd"
	"wanfd/internal/sim"
	"wanfd/internal/telemetry"
	"wanfd/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fdmonitor:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", ":7007", "local UDP address")
		remote    = flag.String("remote", "", "heartbeater UDP address (single-peer mode)")
		peersFlag = flag.String("peers", "", "comma-separated name=addr heartbeater list (cluster mode)")
		httpAddr  = flag.String("http", "", "serve live state and telemetry over HTTP at this address")
		eta       = flag.Duration("eta", time.Second, "heartbeat period of the monitored processes")
		predictor = flag.String("predictor", "LAST", "delay predictor: ARIMA, LAST, LPF, MEAN, WINMEAN")
		margin    = flag.String("margin", "JAC_med", "safety margin: CI_low/med/high, JAC_low/med/high")
		sync      = flag.Bool("sync", false, "estimate the peer clock offset before monitoring (single-peer mode)")
		accrual   = flag.Float64("accrual", 0, "use a φ-accrual detector at this threshold instead of predictor+margin (0 = off, single-peer mode)")
		stats     = flag.Duration("stats", 10*time.Second, "statistics print interval (0 disables)")
		events    = flag.Int("events", 512, "suspicion transitions kept for GET /events")
		storeDir  = flag.String("store-dir", "", "append durable QoS history (delay samples + suspicion transitions) to segment files in this directory")
		storeMax  = flag.Int64("store-max-bytes", 0, "retention: cap the durable history's total size (0 = unbounded)")
		storeAge  = flag.Duration("store-max-age", 0, "retention: drop durable history older than this (0 = keep everything)")
	)
	flag.Parse()
	switch {
	case *remote == "" && *peersFlag == "":
		return fmt.Errorf("either -remote (single peer) or -peers (cluster) is required")
	case *remote != "" && *peersFlag != "":
		return fmt.Errorf("-remote and -peers are mutually exclusive")
	}
	// Telemetry rides with the HTTP endpoint: no server, no registry, and
	// the heartbeat path stays uninstrumented.
	var reg *telemetry.Registry
	if *httpAddr != "" {
		reg = telemetry.NewRegistry(*events)
	}
	sf := storeFlags{dir: *storeDir, maxBytes: *storeMax, maxAge: *storeAge}
	if *peersFlag != "" {
		return runCluster(*listen, *peersFlag, *httpAddr, *eta, *predictor, *margin, *stats, reg, sf)
	}
	return runSingle(*listen, *remote, *httpAddr, *eta, *predictor, *margin, *accrual, *sync, *stats, reg, sf)
}

// storeFlags bundles the durable-store CLI knobs.
type storeFlags struct {
	dir      string
	maxBytes int64
	maxAge   time.Duration
}

// openQoSStore opens the durable store when -store-dir is set; a nil store
// (with nil error) means the feature is off and every downstream consumer
// is nil-safe.
func openQoSStore(sf storeFlags, clk *sim.RealClock) (*wanfd.Store, error) {
	if sf.dir == "" {
		return nil, nil
	}
	return wanfd.OpenStore(wanfd.StoreConfig{
		Dir:      sf.dir,
		MaxBytes: sf.maxBytes,
		MaxAge:   sf.maxAge,
		Clock:    clk,
		Epoch:    clk.Epoch().UnixNano(),
	})
}

// serveHTTP starts an HTTP server for the given handler and reports its
// exit on the returned channel.
func serveHTTP(addr string, h http.Handler) (*http.Server, net.Listener, chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: h}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	return srv, ln, errCh, nil
}

// singleStatus is the JSON body of GET /status in single-peer mode.
type singleStatus struct {
	// Remote is the monitored heartbeater address.
	Remote string `json:"remote"`
	// Uptime is the time since the monitor started.
	Uptime time.Duration `json:"uptime"`
	// Suspected is the detector's current output.
	Suspected bool `json:"suspected"`
	// Timeout is the current adaptive timeout (0 for φ-accrual).
	Timeout time.Duration `json:"timeout"`
	// Phi is the φ-accrual suspicion level (0 for freshness-point).
	Phi float64 `json:"phi,omitempty"`
	// ClockOffset is the estimated peer clock offset.
	ClockOffset time.Duration `json:"clockOffset"`
	// DetectorStats carries the lifetime counters.
	wanfd.DetectorStats
}

// qosMeta stamps exported windows with the recording monitor's detector
// configuration, so fdreplay can rebuild an equivalent detector.
type qosMeta struct {
	// detector is the live combination name ("" when not replayable, e.g.
	// φ-accrual mode).
	detector   string
	eta        time.Duration
	minTimeout time.Duration
}

// parseWindowArg reads one window-bound query parameter as a Go duration
// on the monitor's elapsed timeline; absent means 0 (session start for
// from, "now" for to).
func parseWindowArg(r *http.Request, key string) (time.Duration, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want a Go duration like 90s or 5m", key, s)
	}
	return d, nil
}

// mountQoS adds the unified-stats and durable-history endpoints shared by
// both monitor modes. The store may be nil: /stats still serves (its Store
// section reports Enabled false) while /qos and /export answer 404.
func mountQoS(mux *http.ServeMux, statsFn func() wanfd.Stats, st *wanfd.Store, meta qosMeta) {
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(statsFn())
	})
	window := func(w http.ResponseWriter, r *http.Request) (from, to time.Duration, peer string, ok bool) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return 0, 0, "", false
		}
		if st == nil {
			http.Error(w, "durable store not enabled (run with -store-dir)", http.StatusNotFound)
			return 0, 0, "", false
		}
		var err error
		if from, err = parseWindowArg(r, "from"); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return 0, 0, "", false
		}
		if to, err = parseWindowArg(r, "to"); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return 0, 0, "", false
		}
		return from, to, r.URL.Query().Get("peer"), true
	}
	mux.HandleFunc("/qos", func(w http.ResponseWriter, r *http.Request) {
		from, to, peer, ok := window(w, r)
		if !ok {
			return
		}
		report, err := st.Query(from, to, peer)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(report)
	})
	mux.HandleFunc("/export", func(w http.ResponseWriter, r *http.Request) {
		from, to, peer, ok := window(w, r)
		if !ok {
			return
		}
		win, err := st.Export(from, to, peer)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		win.Detector = meta.detector
		win.Eta = meta.eta
		win.MinTimeout = meta.minTimeout
		w.Header().Set("Content-Type", "application/octet-stream")
		_ = trace.WriteWindow(w, win)
	})
}

// singleHandler builds the HTTP surface of a single-peer monitor.
func singleHandler(mon *wanfd.Monitor, remote string, clk *sim.RealClock, reg *telemetry.Registry, st *wanfd.Store, meta qosMeta) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(singleStatus{
			Remote:        remote,
			Uptime:        clk.Now(),
			Suspected:     mon.Suspected(),
			Timeout:       mon.Timeout(),
			Phi:           mon.Phi(),
			ClockOffset:   mon.ClockOffset(),
			DetectorStats: mon.DetectorStats(),
		})
	})
	mountQoS(mux, mon.Stats, st, meta)
	telemetry.Mount(mux, reg)
	return mux
}

func runSingle(listen, remote, httpAddr string, eta time.Duration, predictor, margin string, accrual float64, sync bool, stats time.Duration, reg *telemetry.Registry, sf storeFlags) error {
	clk := sim.NewRealClock()
	st, err := openQoSStore(sf, clk)
	if err != nil {
		return err
	}
	if st != nil {
		// LIFO defers: the monitor (deferred below) closes first, then the
		// store drains and fsyncs.
		defer st.Close()
	}
	stamp := func(elapsed time.Duration) string {
		return clk.Epoch().Add(elapsed).Format("15:04:05.000")
	}
	opts := []wanfd.Option{
		wanfd.WithStore(st),
		wanfd.WithEta(eta),
		wanfd.WithPredictor(predictor),
		wanfd.WithMargin(margin),
		wanfd.WithTelemetry(reg),
		wanfd.WithOnSuspect(func(at time.Duration) {
			fmt.Printf("%s SUSPECT   (after %v)\n", stamp(at), at.Round(time.Millisecond))
		}),
		wanfd.WithOnTrust(func(at time.Duration) {
			fmt.Printf("%s TRUST     (after %v)\n", stamp(at), at.Round(time.Millisecond))
		}),
	}
	if accrual > 0 {
		opts = append(opts, wanfd.WithAccrualThreshold(accrual))
	}
	if sync {
		opts = append(opts, wanfd.WithSyncClock())
	}
	mon, err := wanfd.NewMonitor(listen, remote, opts...)
	if err != nil {
		return err
	}
	defer mon.Close()
	fmt.Printf("monitoring %s with %s+%s, eta %v, clock offset %v\n",
		remote, predictor, margin, eta, mon.ClockOffset())
	if st != nil {
		fmt.Printf("durable QoS history in %s\n", sf.dir)
	}

	meta := qosMeta{eta: eta, minTimeout: wanfd.DefaultMinTimeout}
	if accrual == 0 {
		meta.detector = predictor + "+" + margin
	}
	var httpErr chan error
	if httpAddr != "" {
		srv, ln, errCh, err := serveHTTP(httpAddr, singleHandler(mon, remote, clk, reg, st, meta))
		if err != nil {
			return err
		}
		defer srv.Close()
		httpErr = errCh
		fmt.Printf("status at http://%s/status, metrics at http://%s/metrics\n", ln.Addr(), ln.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if stats > 0 {
		ticker = time.NewTicker(stats)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-sigCh:
			s := mon.DetectorStats()
			fmt.Printf("shutting down: %d heartbeats (%d stale), %d suspicions\n",
				s.Heartbeats, s.Stale, s.Suspicions)
			return nil
		case err := <-httpErr:
			if err != nil && err != http.ErrServerClosed {
				return fmt.Errorf("http: %w", err)
			}
			return nil
		case <-tick:
			s := mon.DetectorStats()
			if accrual > 0 {
				fmt.Printf("%s stats: heartbeats %d (stale %d), suspicions %d, phi %.2f, suspected %v\n",
					clk.WallTime().Format("15:04:05.000"), s.Heartbeats, s.Stale, s.Suspicions,
					mon.Phi(), mon.Suspected())
			} else {
				fmt.Printf("%s stats: heartbeats %d (stale %d), suspicions %d, timeout %v, suspected %v\n",
					clk.WallTime().Format("15:04:05.000"), s.Heartbeats, s.Stale, s.Suspicions,
					mon.Timeout().Round(time.Millisecond), mon.Suspected())
			}
		}
	}
}

// parsePeers splits "name=addr,name=addr" into pairs, preserving order.
func parsePeers(spec string) ([][2]string, error) {
	var out [][2]string
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad peer %q: want name=addr", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate peer name %q", name)
		}
		seen[name] = true
		out = append(out, [2]string{name, addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -peers list")
	}
	return out, nil
}

func runCluster(listen, peersSpec, httpAddr string, eta time.Duration, predictor, margin string, stats time.Duration, reg *telemetry.Registry, sf storeFlags) error {
	peers, err := parsePeers(peersSpec)
	if err != nil {
		return err
	}
	clk := sim.NewRealClock()
	st, err := openQoSStore(sf, clk)
	if err != nil {
		return err
	}
	if st != nil {
		defer st.Close()
	}
	opts := []wanfd.Option{
		wanfd.WithStore(st),
		wanfd.WithEta(eta),
		wanfd.WithPredictor(predictor),
		wanfd.WithMargin(margin),
		wanfd.WithTelemetry(reg),
		wanfd.WithOnChange(func(peer string, suspected bool, at time.Duration) {
			state := "TRUST  "
			if suspected {
				state = "SUSPECT"
			}
			fmt.Printf("%s %s %s\n", clk.Epoch().Add(at).Format("15:04:05.000"), state, peer)
		}),
	}
	for _, p := range peers {
		opts = append(opts, wanfd.WithPeer(p[0], p[1]))
	}
	mon, err := wanfd.NewMultiMonitor(listen, opts...)
	if err != nil {
		return err
	}
	defer mon.Close()
	fmt.Printf("monitoring %d peers with %s+%s, eta %v, listening on %s\n",
		len(peers), predictor, margin, eta, mon.LocalAddr())
	if st != nil {
		fmt.Printf("durable QoS history in %s\n", sf.dir)
	}

	meta := qosMeta{detector: predictor + "+" + margin, eta: eta, minTimeout: wanfd.DefaultMinTimeout}
	var httpErr chan error
	if httpAddr != "" {
		srv, ln, errCh, err := serveHTTP(httpAddr, clusterHandler(mon, clk, reg, st, meta))
		if err != nil {
			return err
		}
		defer srv.Close()
		httpErr = errCh
		fmt.Printf("cluster state at http://%s/cluster, metrics at http://%s/metrics\n", ln.Addr(), ln.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if stats > 0 {
		ticker = time.NewTicker(stats)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-sigCh:
			snap := mon.Snapshot()
			fmt.Printf("shutting down: %d peers (%d suspected), %d heartbeats, %d suspicions\n",
				snap.Peers, snap.Suspected, snap.Totals.Heartbeats, snap.Totals.Suspicions)
			return nil
		case err := <-httpErr:
			if err != nil && err != http.ErrServerClosed {
				return fmt.Errorf("http: %w", err)
			}
			return nil
		case <-tick:
			snap := mon.SnapshotDetail()
			fmt.Printf("%s cluster: %d peers, %d trusted, %d suspected, %d heartbeats (%d stale)\n",
				clk.WallTime().Format("15:04:05.000"), snap.Peers, snap.Trusted, snap.Suspected,
				snap.Totals.Heartbeats, snap.Totals.Stale)
			suspected := make([]string, 0, snap.Suspected)
			for _, p := range snap.PeerStatuses {
				if p.Suspected {
					suspected = append(suspected, p.Peer)
				}
			}
			sort.Strings(suspected)
			if len(suspected) > 0 {
				fmt.Printf("  suspected: %s\n", strings.Join(suspected, ", "))
			}
		}
	}
}

// clusterHandler builds the HTTP front-end over a live MultiMonitor.
func clusterHandler(mon *wanfd.MultiMonitor, clk *sim.RealClock, reg *telemetry.Registry, st *wanfd.Store, meta qosMeta) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// The default body is the aggregate snapshot — constant-size however
		// large the cluster. ?detail=1 opts into the per-peer breakdown.
		if r.URL.Query().Get("detail") == "1" {
			_ = enc.Encode(mon.SnapshotDetail())
			return
		}
		_ = enc.Encode(mon.Snapshot())
	})
	mux.HandleFunc("/cluster/peers", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, "missing name", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodPost:
			addr := r.URL.Query().Get("addr")
			if addr == "" {
				http.Error(w, "missing addr", http.StatusBadRequest)
				return
			}
			if err := mon.AddPeer(name, addr); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			fmt.Printf("%s JOINED  %s (%s)\n", clk.WallTime().Format("15:04:05.000"), name, addr)
			w.WriteHeader(http.StatusCreated)
		case http.MethodDelete:
			if err := mon.RemovePeer(name); err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			fmt.Printf("%s LEFT    %s\n", clk.WallTime().Format("15:04:05.000"), name)
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mountQoS(mux, mon.Stats, st, meta)
	telemetry.Mount(mux, reg)
	return mux
}
