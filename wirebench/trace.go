package main

import (
	"fmt"
	"sort"
	"time"

	"wanfd"
	"wanfd/internal/nekostat"
	"wanfd/internal/trace"
)

// spanTolerance is how far a span sum may sit from its end-to-end sample:
// the two are read on different clocks (the generator's and harness's
// wall stamps, the monitor's run clock), tied together by one epoch
// estimate whose error is one callback's clock-read latency.
const spanTolerance = 50 * time.Microsecond

// hbKey names one heartbeat in the exported window.
type hbKey struct {
	peer  int32
	cycle int64
}

// hbRec is one exported heartbeat: send and drain stamps on the monitor's
// clock.
type hbRec struct{ send, recv int64 }

// transKey names one exported suspicion by its instant on the monitor's
// clock.
type transKey struct {
	peer int32
	at   int64
}

// spanResult splits the traced run's end-to-end samples into layer spans.
type spanResult struct {
	wire, dispatch   []int64 // trust = wire + dispatch
	fireLate, notify []int64 // suspect_late = fireLate + notify
	// unmatched counts end-to-end samples with no exported heartbeat or
	// transition; mismatched those whose spans do not sum to the sample.
	unmatched, mismatched int
	// storeSamples and storeTransitions size the exported window.
	storeSamples, storeTransitions int
	hbs                            map[hbKey]hbRec
	susp                           map[transKey]bool
}

// exportWindow exports the run's window from the store while the monitor
// is still open, runs the exact early-suspicion check on it and, in a
// traced run, indexes it for the span split.
func exportWindow(res *liveResult, st *wanfd.Store, cfg liveConfig, traced bool) error {
	if err := st.Sync(); err != nil {
		return fmt.Errorf("store sync: %w", err)
	}
	w, err := st.Export(0, 0, "")
	if err != nil {
		return fmt.Errorf("store export: %w", err)
	}
	res.exported = true
	res.storeEarly = earlySuspicions(w, cfg.eta+cfg.floor)
	sp := &res.spans
	sp.storeSamples, sp.storeTransitions = len(w.Samples), len(w.Events)
	if !traced {
		return nil
	}
	sp.hbs = make(map[hbKey]hbRec, len(w.Samples))
	for _, s := range w.Samples {
		if i, ok := peerIndex(s.Peer); ok {
			sp.hbs[hbKey{int32(i), s.Seq}] = hbRec{send: int64(s.Send), recv: int64(s.Recv)}
		}
	}
	sp.susp = make(map[transKey]bool)
	for _, e := range w.Events {
		if i, ok := peerIndex(e.Source); ok && e.Kind == nekostat.KindStartSuspect {
			sp.susp[transKey{int32(i), int64(e.At)}] = true
		}
	}
	return nil
}

// earlySuspicions counts the window's suspicions recorded before the
// freshness point (send + η + δ, δ = the floor) of the freshest heartbeat
// drained before them. Unlike the schedule oracle, which cannot tell a
// lost heartbeat from a delivered one, it knows which heartbeats arrived,
// so it also catches a suspicion after τ_j that a delivered heartbeat j+1
// should have deferred. A lost sample or a δ above the floor can only hide
// an early suspicion, never fake one.
//
// A drained heartbeat reaches its detector only after a dispatch delay, and
// a deadline may expire in between. The detector then suspects first and,
// on processing the heartbeat, trusts at its drain stamp, so in the
// export's instant order that trust precedes the suspicion and breaks the
// suspect/trust alternation every detector keeps. Such a suspicion is a
// dispatch race, counted false by the oracle, not an early one.
func earlySuspicions(w *trace.Window, etaFloor time.Duration) int {
	type drained struct{ recv, tau time.Duration }
	byPeer := make(map[string][]drained)
	for _, s := range w.Samples {
		byPeer[s.Peer] = append(byPeer[s.Peer], drained{s.Recv, s.Send + etaFloor})
	}
	for _, d := range byPeer {
		sort.Slice(d, func(a, b int) bool { return d[a].recv < d[b].recv })
		for j := 1; j < len(d); j++ {
			d[j].tau = max(d[j].tau, d[j-1].tau)
		}
	}
	// suspected tracks each detector's state in processing order; raced
	// marks a trust seen while trusted, which the next suspicion preceded.
	suspected, raced := map[string]bool{}, map[string]bool{}
	early := 0
	for _, e := range w.Events {
		switch e.Kind {
		case nekostat.KindEndSuspect:
			if !suspected[e.Source] {
				raced[e.Source] = true
			}
			suspected[e.Source] = false
		case nekostat.KindStartSuspect:
			if raced[e.Source] {
				raced[e.Source] = false
				continue
			}
			suspected[e.Source] = true
			d := byPeer[e.Source]
			k := sort.Search(len(d), func(k int) bool { return d[k].recv >= e.At }) - 1
			if k >= 0 && e.At < d[k].tau {
				early++
			}
		}
	}
	return early
}

// split ties every matched end-to-end sample to its exported records.
// The monitor's epoch (wall instant of its clock's zero) is estimated as
// the smallest callback-minus-transition gap, so each sum differs from
// its sample by that estimate's error alone.
func (sp *spanResult) split(o oracleResult, eta, floor time.Duration) {
	epoch := int64(1<<63 - 1)
	for _, ss := range [][]sample{o.trust, o.suspect} {
		for _, s := range ss {
			if g := s.c - s.at; g < epoch {
				epoch = g
			}
		}
	}
	check := func(sum, e2e int64) {
		if d := sum - e2e; d > int64(spanTolerance) || d < -int64(spanTolerance) {
			sp.mismatched++
		}
	}
	for _, s := range o.trust {
		h, ok := sp.hbs[hbKey{s.peer, s.cycle}]
		if !ok || h.recv != s.at {
			sp.unmatched++
			continue
		}
		wire := h.recv - h.send
		dispatch := s.c - (h.recv + epoch)
		sp.wire = append(sp.wire, wire)
		sp.dispatch = append(sp.dispatch, dispatch)
		check(wire+dispatch, s.lat())
	}
	for _, s := range o.suspect {
		h, ok := sp.hbs[hbKey{s.peer, s.cycle}]
		if !ok || !sp.susp[transKey{s.peer, s.at}] {
			sp.unmatched++
			continue
		}
		fire := s.at - (h.send + int64(eta+floor))
		notify := s.c - (s.at + epoch)
		sp.fireLate = append(sp.fireLate, fire)
		sp.notify = append(sp.notify, notify)
		check(fire+notify, s.lat())
	}
	sp.hbs, sp.susp = nil, nil
}
