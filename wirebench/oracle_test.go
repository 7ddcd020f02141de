package main

import (
	"os"
	"runtime"
	"testing"
	"time"

	"wanfd/internal/nekostat"
	"wanfd/internal/trace"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// live test starts it as the generator process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// synthRun is a synthetic schedule with injected, known latencies: every
// send is written writeLag after its due instant, every expected
// suspicion is delivered suspLag(j) after τ, every trust trustLag(j)
// after its heartbeat's write.
type synthRun struct {
	p            *plan
	eta, floor   time.Duration
	t0, end      int64
	sends        []sendRec
	events       []event
	wantSusp     map[int64]bool // injected suspicion latencies
	wantTrust    map[int64]bool // injected trust latencies
	epoch        int64          // monitor clock zero, wall ns
	probeEpisode int
	// trusts counts episodes ended by a later heartbeat inside the window.
	trusts int
}

func newSynthRun(t *testing.T) *synthRun {
	t.Helper()
	s := &synthRun{
		p: newPlan(8, 100*time.Millisecond, 2, 5), eta: 100 * time.Millisecond, floor: 20 * time.Millisecond,
		t0: 1e12, wantSusp: map[int64]bool{}, wantTrust: map[int64]bool{}, epoch: 1e12 - 5e9,
	}
	s.end = s.t0 + int64(2*time.Second)
	const writeLag = 7000
	for k := int64(0); k < s.p.cycles(2*time.Second); k++ {
		for _, i := range s.p.order {
			due := s.p.due(s.t0, i, k)
			if due >= s.end || !s.p.sends(i, k) {
				continue
			}
			s.sends = append(s.sends, sendRec{peer: uint32(i), cycle: uint32(k), due: due, write: due + writeLag})
		}
	}
	per := map[int][]sendRec{}
	for _, r := range s.sends {
		per[int(r.peer)] = append(per[int(r.peer)], r)
	}
	n := int64(0)
	for i, rs := range per {
		if !s.p.probe[i] {
			continue
		}
		for j := range rs {
			tau := rs[j].write + int64(s.eta+s.floor)
			if tau >= s.end || s.p.due(s.t0, i, int64(rs[j].cycle)+1) >= s.end {
				break
			}
			n++
			sl := 1000 + n*3
			s.wantSusp[sl] = true
			s.events = append(s.events, event{peer: int32(i), susp: true, c: tau + sl, at: tau + sl - s.epoch - 300})
			s.probeEpisode++
			if j+1 < len(rs) {
				tl := 40000 + n*5
				s.wantTrust[tl] = true
				s.events = append(s.events, event{peer: int32(i), susp: false, c: rs[j+1].write + tl, at: rs[j+1].write + tl - s.epoch - 300})
				s.trusts++
			}
		}
	}
	if s.probeEpisode == 0 {
		t.Fatal("synthetic plan has no probe episodes")
	}
	return s
}

func (s *synthRun) oracle() oracleResult {
	return runOracle(s.p, s.eta, s.floor, s.t0, s.end, s.sends, s.events)
}

// TestOracleMatchesInjectedLatencies pins the send↔transition matching:
// every injected latency comes back exactly, nothing is false or missed.
func TestOracleMatchesInjectedLatencies(t *testing.T) {
	s := newSynthRun(t)
	o := s.oracle()
	if o.expected != s.probeEpisode || o.missed != 0 || o.falseSusp != 0 || o.genLate != 0 || o.early != 0 {
		t.Fatalf("oracle: %d expected, %d missed, %d false, %d generator-late, %d early; want %d expected and nothing else",
			o.expected, o.missed, o.falseSusp, o.genLate, o.early, s.probeEpisode)
	}
	if len(o.suspect) != s.probeEpisode || len(o.trust) != s.trusts {
		t.Fatalf("%d suspicion and %d trust samples, want %d and %d", len(o.suspect), len(o.trust), s.probeEpisode, s.trusts)
	}
	for _, l := range lats(o.suspect) {
		if !s.wantSusp[l] {
			t.Fatalf("suspicion latency %d was never injected", l)
		}
	}
	for _, l := range lats(o.trust) {
		if !s.wantTrust[l] {
			t.Fatalf("trust latency %d was never injected", l)
		}
	}
}

// TestOracleClassifiesFaults injects one of each fault the oracle
// distinguishes.
func TestOracleClassifiesFaults(t *testing.T) {
	s := newSynthRun(t)
	var steady []sendRec // a non-probe peer's sends
	for _, r := range s.sends {
		if !s.p.probe[r.peer] && (len(steady) == 0 || steady[0].peer == r.peer) {
			steady = append(steady, r)
		}
	}
	i := int32(steady[0].peer)
	tau := func(j int) int64 { return steady[j].write + int64(s.eta+s.floor) }
	// A suspicion although the next heartbeat was written on time.
	s.events = append(s.events, event{peer: i, susp: true, c: tau(3) + 10})
	// A suspicion before the peer's first freshness point.
	s.events = append(s.events, event{peer: i, susp: true, c: steady[0].write + 10})
	o := s.oracle()
	if o.falseSusp != 1 || o.early != 1 || o.genLate != 0 {
		t.Fatalf("oracle: %d false, %d early, %d generator-late; want one false and one early suspicion", o.falseSusp, o.early, o.genLate)
	}

	// The same false suspicion when the generator wrote the preventing
	// heartbeat later than the floor is blamed on the generator.
	for j := range s.sends {
		r := &s.sends[j]
		if int32(r.peer) == i && r.cycle == steady[4].cycle {
			r.write = r.due + int64(s.floor) + 1
		}
	}
	s.events = s.events[:len(s.events)-1]
	if o := s.oracle(); o.genLate != 1 || o.falseSusp != 0 {
		t.Fatalf("oracle: %d generator-late, %d false; want the suspicion counted generator-late", o.genLate, o.falseSusp)
	}
}

// TestEarlySuspicionsFromExport pins the export-based check on the case
// the schedule oracle can only count as false: a suspicion after τ_j that
// a delivered heartbeat j+1 should have deferred is early, and the same
// suspicion is legitimate once heartbeat j+1 is lost.
func TestEarlySuspicionsFromExport(t *testing.T) {
	const eta, floor = 50 * time.Millisecond, 20 * time.Millisecond
	hb := func(seq int64) trace.Sample {
		send := time.Duration(seq) * eta
		return trace.Sample{Peer: peerName(7), Seq: seq, Send: send, Recv: send + 100*time.Microsecond}
	}
	susp := func(at time.Duration) nekostat.Event {
		return nekostat.Event{Kind: nekostat.KindStartSuspect, Source: peerName(7), At: at}
	}
	tau1 := eta + eta + floor // τ of heartbeat 1
	w := &trace.Window{
		Samples: []trace.Sample{hb(0), hb(1), hb(2)},
		Events:  []nekostat.Event{susp(tau1 + time.Millisecond), susp(2*eta + eta + floor + time.Millisecond)},
	}
	if n := earlySuspicions(w, eta+floor); n != 1 {
		t.Fatalf("%d early suspicions, want the one heartbeat 2 should have deferred", n)
	}
	w.Samples = []trace.Sample{hb(0), hb(1)}
	if n := earlySuspicions(w, eta+floor); n != 0 {
		t.Fatalf("%d early suspicions with heartbeat 2 lost, want 0", n)
	}
	w.Events = append(w.Events, susp(hb(1).Recv+time.Millisecond))
	if n := earlySuspicions(w, eta+floor); n != 1 {
		t.Fatalf("%d early suspicions, want the one right after heartbeat 1 drained", n)
	}

	// Heartbeat 2 drained before τ_1 but reached its detector after the
	// deadline fired: the trust at its drain stamp sorts before the
	// suspicion it ends, which is a dispatch race, not early.
	trust := func(at time.Duration) nekostat.Event {
		return nekostat.Event{Kind: nekostat.KindEndSuspect, Source: peerName(7), At: at}
	}
	h2 := hb(2)
	h2.Send, h2.Recv = 2*eta-floor+time.Millisecond, tau1-time.Millisecond
	w.Samples = []trace.Sample{hb(0), hb(1), h2}
	w.Events = []nekostat.Event{trust(h2.Recv), susp(tau1 + time.Millisecond)}
	if n := earlySuspicions(w, eta+floor); n != 0 {
		t.Fatalf("%d early suspicions in a dispatch race, want 0", n)
	}
	// After a rightful suspicion at τ_1 the events alternate, so heartbeat
	// 2, drained late, was processed at its trust and the next suspicion
	// is early.
	h2.Recv = tau1 + 500*time.Microsecond
	w.Samples = []trace.Sample{hb(0), hb(1), h2}
	w.Events = []nekostat.Event{susp(tau1), trust(h2.Recv), susp(tau1 + time.Millisecond)}
	if n := earlySuspicions(w, eta+floor); n != 1 {
		t.Fatalf("%d early suspicions, want the one heartbeat 2 had deferred", n)
	}
}

// TestOracleCountsMissedSuspicion drops one delivered suspicion (and its
// trust): the episode is missed, not silently skipped.
func TestOracleCountsMissedSuspicion(t *testing.T) {
	s := newSynthRun(t)
	s.events = s.events[2:]
	if o := s.oracle(); o.missed != 1 || len(o.suspect) != s.probeEpisode-1 {
		t.Fatalf("oracle: %d missed, %d samples; want exactly one missed suspicion", o.missed, len(o.suspect))
	}
}

// TestSpanSplitSumsToSamples builds the store's view of the synthetic run
// and checks the span sums reproduce every end-to-end sample, and that a
// record off by more than the tolerance is caught.
func TestSpanSplitSumsToSamples(t *testing.T) {
	s := newSynthRun(t)
	o := s.oracle()
	build := func() *spanResult {
		sp := &spanResult{hbs: map[hbKey]hbRec{}, susp: map[transKey]bool{}}
		for _, r := range s.sends {
			sp.hbs[hbKey{int32(r.peer), int64(r.cycle)}] = hbRec{send: r.write - s.epoch, recv: r.write + 20000 - s.epoch}
		}
		for _, x := range o.trust {
			k := hbKey{x.peer, x.cycle}
			h := sp.hbs[k]
			h.recv = x.at
			sp.hbs[k] = h
		}
		for _, x := range o.suspect {
			sp.susp[transKey{x.peer, x.at}] = true
		}
		return sp
	}
	sp := build()
	sp.split(o, s.eta, s.floor)
	if sp.unmatched != 0 || sp.mismatched != 0 || len(sp.wire) != len(o.trust) || len(sp.fireLate) != len(o.suspect) {
		t.Fatalf("split: %d wire, %d fire-late, %d unmatched, %d mismatched", len(sp.wire), len(sp.fireLate), sp.unmatched, sp.mismatched)
	}
	// The injected 300 ns callback latency is what notify measures.
	for _, n := range sp.notify {
		if n != 0 {
			t.Fatalf("notify span %d, want 0 relative to the minimum callback gap", n)
		}
	}

	sp = build()
	x := o.trust[0]
	h := sp.hbs[hbKey{x.peer, x.cycle}]
	h.send -= int64(time.Millisecond)
	sp.hbs[hbKey{x.peer, x.cycle}] = h
	sp.split(o, s.eta, s.floor)
	// That heartbeat ends one probe episode and opens the next, so both the
	// trust and the following suspicion sample must be caught.
	if sp.mismatched != 2 {
		t.Fatalf("a send stamp 1ms off gives %d mismatches, want 2", sp.mismatched)
	}
}

// TestShortWorkloads runs every workload at toy size end to end, untraced
// and traced, and requires correct outputs.
func TestShortWorkloads(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the generator runs on linux only")
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for name, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			res, err := run(w, 3, 2*time.Second, traced, t.TempDir(), devnull)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || len(res.Metrics) == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d metrics=%d", name, traced, res.Correct, res.Attempted, len(res.Metrics))
			}
			for k, v := range res.Metrics {
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, v.Value)
				}
			}
		}
	}
}
