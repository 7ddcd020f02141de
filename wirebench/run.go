package main

import (
	"fmt"
	"os"
	"time"

	"wanfd/internal/telemetry"
)

// run executes one benchmark run: the grid phase, then set-up and the live
// phase, and folds their figures into the result line.
func run(w workload, seed int64, dur time.Duration, traced bool, work string, out *os.File) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return res, err
	}
	// The grid runs first, on a small heap: after a live phase, the
	// garbage collector's mark workers for its records (tens of MB on
	// fleet) shared the grid's CPU time and spread it from run to run.
	grid, err := runGrid(w.grid, seed)
	if err != nil {
		return res, err
	}
	var (
		timed    map[string]metric
		untraced *liveResult
		after    func(*liveResult, *telemetry.Registry) error
	)
	if traced {
		// An untraced window first: the baseline the tracing overhead is
		// measured against, and the source of the live-phase latencies.
		var err error
		if untraced, err = runLive(w.live, seed, dur, false, work, nil); err != nil {
			return res, err
		}
		after = func(lr *liveResult, reg *telemetry.Registry) (err error) {
			timed, err = layerTimings(w.live, lr, reg, seed, work)
			return err
		}
	}
	lv, err := runLive(w.live, seed, dur, traced, work, after)
	if err != nil {
		return res, err
	}

	o := lv.oracle
	trust, susp := summarize(lats(o.trust)), summarize(lats(o.suspect))
	members := lv.memberOps()
	hbLost := max(0, int64(lv.gen.Sends)-int64(lv.counted))
	outLost := max(0, int64(lv.hbOutSent)-int64(lv.gen.SinkRecv))
	res.Attempted = int64(lv.gen.Sends) + int64(len(members)) + int64(lv.scrapeTries) + int64(lv.hbOutSent) + int64(grid.attempted)
	res.Failed = hbLost + int64(o.falseSusp+o.missed+lv.memberErr+lv.scrapeErr) + outLost + int64(grid.failed)

	report(out, "live: %d peers, %d heartbeats sent, %d counted, socket drops %d, ring drops %d",
		w.live.peers, lv.gen.Sends, lv.counted, lv.sockDrops, lv.stats.Ingest.RingDrops)
	report(out, "oracle: %d suspicions expected, %d matched, %d missed, %d false, %d generator-late, %d early",
		o.expected, len(o.suspect), o.missed, o.falseSusp, o.genLate, o.early)
	report(out, "samples: trust n=%d (p99 at q=%.4f), suspect_late n=%d (p99 at q=%.4f)",
		trust.n, trust.q99, susp.n, susp.q99)
	lat := map[string]metric{}
	latencyMetrics(lv, func(name, unit string, v float64) { lat[name] = metric{Value: v, Unit: unit} })
	for _, k := range sortedKeys(lat) {
		report(out, "latency: %-28s %14.4f %s", k, lat[k].Value, lat[k].Unit)
	}
	report(out, "generator: late p50 %.1fus p99 %.1fus max %.1fus, cpu %.3fs, %d write errors",
		us(lv.gen.LateP50), us(lv.gen.LateP99), us(lv.gen.LateMax), lv.gen.CPUSec, lv.gen.SendErrs)
	report(out, "egress: heartbeater sent %d, sink received %d from %d remotes, sink drops %d",
		lv.hbOutSent, lv.gen.SinkRecv, lv.gen.SinkRemotes, lv.gen.SinkDrops)
	report(out, "membership: %d calls, %d failed; scrapes: %d, %d failed, %d bytes",
		len(members), lv.memberErr, len(lv.scrapes), lv.scrapeErr, lv.scrapeB)
	report(out, "grid: %s × %d, %.3fs wall and %.3fs CPU median, %d mismatches, %d invariant failures",
		w.grid.key(), grid.attempted, medianF(grid.seconds), medianF(grid.cpu), grid.mismatch, grid.badInvar)
	if lv.exported {
		report(out, "store: exported %d samples and %d transitions, %d suspicions before their freshness point",
			lv.spans.storeSamples, lv.spans.storeTransitions, lv.storeEarly)
	}
	if traced {
		sp := lv.spans
		report(out, "trace: spans for %d trust and %d suspicion samples, %d unmatched, %d mismatched",
			len(sp.wire), len(sp.fireLate), sp.unmatched, sp.mismatched)
	}
	if lv.deltaBad > 0 {
		// A delay spike can lift pred+margin above the floor for a few
		// heartbeats; τ then lies later than the oracle assumes, which can
		// only inflate suspicion lateness, never fake an early suspicion.
		report(out, "WARNING: %d spot-checked peers have δ above the floor %v", lv.deltaBad, w.live.floor)
	}
	if o.genLate > 0 {
		report(out, "WARNING: generator-late run: %d false suspicions follow a heartbeat written later than the floor", o.genLate)
	}

	var problems []string
	flag := func(bad bool, format string, args ...any) {
		if bad {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	flag(o.early > 0, "%d suspicions before any freshness point", o.early)
	flag(lv.storeEarly > 0, "%d exported suspicions precede their freshness point", lv.storeEarly)
	flag(lv.evDropped > 0, "%d transitions overflowed the recorder", lv.evDropped)
	flag(grid.mismatch > 0, "grid output differs from the stored reference")
	flag(grid.badInvar > 0, "grid output breaks its invariants")
	flag(trust.n == 0 || susp.n == 0, "no trust or suspicion samples")
	flag(len(lv.adds) == 0 || len(lv.removes) == 0 ||
		(w.live.scrapeEvery > 0 && len(lv.scrapes) == 0) || (w.live.remotes > 0 && lv.gen.SinkLateN == 0),
		"an operator-surface phase produced no samples")
	if traced {
		sp := lv.spans
		// The store drops records rather than block the hot path; only
		// samples its drops cannot explain are an error.
		flag(sp.unmatched > int(lv.stats.Store.Dropped), "%d samples missing from the store export, %d records dropped",
			sp.unmatched, lv.stats.Store.Dropped)
		flag(sp.mismatched > 0, "%d span sums differ from their end-to-end sample by more than %v",
			sp.mismatched, spanTolerance)
	}
	for _, p := range problems {
		report(out, "INCORRECT: %s", p)
	}
	res.Correct = len(problems) == 0

	if traced {
		res.Metrics = layerMetrics(lv, untraced, timed)
		res.Metrics["e2e.grid_s"] = metric{Value: medianF(grid.seconds), Unit: "s"}
	} else {
		res.Metrics = endToEnd(lv, grid)
	}
	for _, k := range sortedKeys(res.Metrics) {
		report(out, "  %-34s %14.4f %s", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// memberOps is every timed membership call.
func (lv *liveResult) memberOps() []int64 {
	return append(append([]int64(nil), lv.adds...), lv.removes...)
}

// endToEnd is the untraced run's result: the figures of the live and grid
// phases that hold steady from run to run on a small shared VM, each a
// median. The wall-clock latencies of the live phase (trust, suspicion
// lateness, scrapes, egress, fleet's RemovePeer, ~45 ms of CPU that
// contends with the loaded monitor, and flap's idle AddPeer, whose p50
// sits near 1.5 or 3 µs with the host's load) swing with the
// hypervisor's CPU steal and are reported by the traced run instead (see
// latencyMetrics), as is the grid's wall time; the grid is bounded by the
// CPU time it takes.
func endToEnd(lv *liveResult, grid gridResult) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", medianF(lv.setupS))
	put("cpu_us_per_hb", "us", lv.cpuUsPerHB)
	put("grid_cpu_s", "s", medianF(grid.cpu))
	return m
}

// latencyMetrics are the live phase's wall-clock latencies, medians and
// tails, of an untraced run.
func latencyMetrics(lv *liveResult, put func(name, unit string, v float64)) {
	trust, susp := summarize(lats(lv.oracle.trust)), summarize(lats(lv.oracle.suspect))
	put("e2e.trust_p50_us", "us", us(trust.p50))
	put("e2e.trust_p99_us", "us", us(trust.p99))
	put("e2e.suspect_late_p50_us", "us", us(susp.p50))
	put("e2e.suspect_late_p99_us", "us", us(susp.p99))
	put("e2e.add_peer_p50_us", "us", us(summarize(lv.adds).p50))
	put("e2e.remove_peer_p50_us", "us", us(summarize(lv.removes).p50))
	put("e2e.member_op_p99_us", "us", us(summarize(lv.memberOps()).p99))
	put("e2e.scrape_p50_ms", "ms", float64(summarize(lv.scrapes).p50)/1e6)
	put("e2e.hb_out_late_p50_us", "us", us(lv.gen.SinkLateP50))
	put("e2e.hb_out_late_p99_us", "us", us(lv.gen.SinkLateP99))
}
