package main

import (
	"sort"
	"time"
)

// sample is one matched end-to-end sample: the peer, the heartbeat cycle
// it is tied to (the trusting heartbeat, or the last heartbeat before the
// suspicion), the reference instant (write, or freshness point τ) and the
// callback instant, all Unix ns.
type sample struct {
	peer  int32
	cycle int64
	ref   int64
	c     int64
	at    int64 // transition instant on the monitor's clock
}

func (s sample) lat() int64 { return s.c - s.ref }

// oracleResult is the schedule oracle's verdict on one live run.
type oracleResult struct {
	trust, suspect []sample
	// expected counts the suspicions the schedule calls for inside the
	// window; missed those never delivered.
	expected, missed int
	// falseSusp counts suspicions the schedule did not call for; genLate
	// those among them whose preventing heartbeat the generator wrote more
	// than the floor late, which are not the monitor's fault.
	falseSusp, genLate int
	// early counts suspicions delivered before any freshness point of the
	// peer had passed — a detector that fires early. A suspicion after τ_j
	// that a delivered heartbeat j+1 should have deferred looks, from the
	// schedule alone, like one after a lost heartbeat and counts as false;
	// only a run with a store catches it (see earlySuspicions).
	early int
}

// runOracle matches OnChange deliveries against the send schedule. For
// send j of a peer, τ_j = write_j + η + δ, and the episode after j is
//
//   - expected when the schedule skips the next cycle and the next write
//     comes more than guard after τ_j: exactly one suspicion must follow;
//   - quiet when the next write comes more than guard before τ_j: any
//     suspicion is false (or generator-late, when that write was more
//     than the floor behind its due instant);
//   - ambiguous otherwise: the generator wrote too close to τ_j, or a
//     scheduled send after τ_j, so a suspicion is counted generator-late
//     and not sampled;
//   - the tail when τ_j lies at or after end, or the next cycle falls due
//     at or after end: not judged.
//
// A suspicion belongs to the last send whose τ has passed. A trust
// belongs to the last send written before it and is sampled when it ends
// an expected suspicion.
func runOracle(p *plan, eta, floor time.Duration, t0, end int64, sends []sendRec, events []event) oracleResult {
	var out oracleResult
	byPeer := make([][]sendRec, p.peers)
	counts := make([]int, p.peers)
	for _, s := range sends {
		counts[s.peer]++
	}
	for i := range byPeer {
		byPeer[i] = make([]sendRec, 0, counts[i])
	}
	for _, s := range sends {
		byPeer[s.peer] = append(byPeer[s.peer], s)
	}
	evs := make([][]event, p.peers)
	for _, e := range events {
		if int(e.peer) < p.peers {
			evs[e.peer] = append(evs[e.peer], e)
		}
	}
	for i := 0; i < p.peers; i++ {
		out.peer(p, i, eta, floor, t0, end, byPeer[i], evs[i])
	}
	return out
}

// Episode kinds; see runOracle.
const (
	epTail = iota
	epExpected
	epQuiet
	epAmbiguous
)

func (out *oracleResult) peer(p *plan, i int, eta, floor time.Duration, t0, end int64, s []sendRec, ev []event) {
	sort.Slice(ev, func(a, b int) bool { return ev[a].c < ev[b].c })
	guard := int64(floor / 4)
	tau := func(j int) int64 { return s[j].write + int64(eta+floor) }
	kind := func(j int) int {
		next := int64(s[j].cycle) + 1
		if tau(j) >= end || p.due(t0, i, next) >= end {
			return epTail
		}
		// With no later write in the window, nothing can refresh the
		// detector before τ_j.
		wn := int64(1<<63 - 1)
		if j+1 < len(s) {
			wn = s[j+1].write
		}
		switch {
		case !p.sends(i, next) && wn > tau(j)+guard:
			return epExpected
		case wn < tau(j)-guard:
			return epQuiet
		}
		return epAmbiguous
	}
	matched := make([]bool, len(s))
	open := -1 // send index of the expected suspicion in force, or -1
	for _, e := range ev {
		if e.susp {
			// Last send whose freshness point has passed.
			j := sort.Search(len(s), func(j int) bool { return tau(j) > e.c }) - 1
			open = -1
			if j < 0 {
				out.early++
				continue
			}
			switch kind(j) {
			case epExpected:
				if !matched[j] {
					matched[j] = true
					open = j
					out.suspect = append(out.suspect, sample{peer: int32(i), cycle: int64(s[j].cycle), ref: tau(j), c: e.c, at: e.at})
				} else {
					out.falseSusp++
				}
			case epQuiet:
				if s[j+1].write-s[j+1].due > int64(floor) {
					out.genLate++
				} else {
					out.falseSusp++
				}
			case epAmbiguous:
				out.genLate++
			}
			continue
		}
		m := sort.Search(len(s), func(m int) bool { return s[m].write > e.c }) - 1
		if open >= 0 && m > open {
			out.trust = append(out.trust, sample{peer: int32(i), cycle: int64(s[m].cycle), ref: s[m].write, c: e.c, at: e.at})
		}
		open = -1
	}
	for j := range s {
		if kind(j) == epExpected {
			out.expected++
			if !matched[j] {
				out.missed++
			}
		}
	}
}

func lats(ss []sample) []int64 {
	out := make([]int64, len(ss))
	for i, s := range ss {
		out[i] = s.lat()
	}
	return out
}
