package wanfd

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/telemetry"
)

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

func TestMultiMonitorDynamicMembership(t *testing.T) {
	addrs := freeUDPPorts(t, 3)
	monAddr, aAddr, bAddr := addrs[0], addrs[1], addrs[2]
	const eta = 25 * time.Millisecond

	mon, err := NewMultiMonitor(monAddr, WithEta(eta))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if n := mon.Peers(); n != 0 {
		t.Fatalf("fresh monitor has %d peers", n)
	}

	if err := mon.AddPeer("alpha", aAddr); err != nil {
		t.Fatal(err)
	}
	if err := mon.AddPeer("alpha", "127.0.0.1:1"); err == nil {
		t.Error("duplicate peer name accepted")
	}
	if err := mon.AddPeer("alias", aAddr); err == nil {
		t.Error("duplicate peer address accepted")
	}
	if err := mon.AddPeer("", bAddr); err == nil {
		t.Error("empty peer name accepted")
	}
	if err := mon.AddPeer("beta", bAddr); err != nil {
		t.Fatal(err)
	}
	if n := mon.Peers(); n != 2 {
		t.Fatalf("peers = %d, want 2", n)
	}

	hbA, err := RunHeartbeater(HeartbeaterConfig{Listen: aAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hbA.Close()
	hbB, err := RunHeartbeater(HeartbeaterConfig{Listen: bAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hbB.Close()

	if !waitFor(t, 3*time.Second, func() bool {
		s, err := mon.PeerStatusOf("alpha")
		if err != nil {
			return false
		}
		b, errB := mon.PeerStatusOf("beta")
		return errB == nil && s.Heartbeats >= 5 && b.Heartbeats >= 5
	}) {
		t.Fatal("added peers never delivered heartbeats")
	}

	st := mon.Status()
	if len(st) != 2 || st[0].Peer != "alpha" || st[1].Peer != "beta" {
		t.Fatalf("status = %+v, want [alpha beta]", st)
	}
	snap := mon.Snapshot()
	if snap.Peers != 2 || snap.Trusted != 2 || snap.Suspected != 0 {
		t.Errorf("snapshot %+v, want 2 trusted peers", snap)
	}
	if snap.Totals.Heartbeats < 10 {
		t.Errorf("snapshot totals %+v, want >= 10 heartbeats", snap.Totals)
	}
	if snap.Uptime <= 0 {
		t.Errorf("snapshot uptime %v", snap.Uptime)
	}

	// Removing one peer must not disturb the other.
	if err := mon.RemovePeer("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := mon.RemovePeer("alpha"); err == nil {
		t.Error("removing an unknown peer should fail")
	}
	if _, err := mon.Suspected("alpha"); err == nil {
		t.Error("removed peer still queryable")
	}
	before, err := mon.PeerStatusOf("beta")
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 3*time.Second, func() bool {
		b, err := mon.PeerStatusOf("beta")
		return err == nil && b.Heartbeats > before.Heartbeats && !b.Suspected
	}) {
		t.Fatal("surviving peer's detector disturbed by removal")
	}
}

// TestMultiMonitorFailedAddPeerRetiresSeries pins the telemetry of a
// rejected join: a name refused for its address never became a member, so
// none of its per-peer series may stay in the exposition, while a name
// refused as a duplicate must leave the live member's series in place.
func TestMultiMonitorFailedAddPeerRetiresSeries(t *testing.T) {
	reg := telemetry.NewRegistry(16)
	mon, err := NewMultiMonitor("127.0.0.1:0", WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.AddPeer("alpha", "127.0.0.1:40001"); err != nil {
		t.Fatal(err)
	}
	if err := mon.AddPeer("ghost", "127.0.0.1:40001"); err == nil {
		t.Fatal("duplicate peer address accepted")
	}
	if err := mon.AddPeer("alpha", "127.0.0.1:40002"); err == nil {
		t.Fatal("duplicate peer name accepted")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `peer="ghost"`) {
		t.Errorf("rejected peer left series behind:\n%s", out)
	}
	for _, series := range []string{
		telemetry.MetricHeartbeatsLate + `{peer="alpha"}`,
		telemetry.MetricHeartbeats + `{peer="alpha"}`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("live member lost %s after a duplicate-name AddPeer", series)
		}
	}
}

// TestMultiMonitorStatsMatchSnapshot pins that the unified Stats and the
// cluster Snapshot report the same detector totals on a populated
// monitor: heartbeats, a stale duplicate and one suspicion per silent
// peer.
func TestMultiMonitorStatsMatchSnapshot(t *testing.T) {
	mon, err := NewMultiMonitor("127.0.0.1:0", WithEta(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	const peers = 4
	for i := 0; i < peers; i++ {
		if err := mon.AddPeer(fmt.Sprintf("peer-%d", i), fmt.Sprintf("127.0.0.1:%d", 40001+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Process ids are assigned sequentially in AddPeer order. Peer 0 also
	// gets a duplicate of seq 2, which its detector counts as stale.
	for i := 0; i < peers; i++ {
		for _, seq := range []int64{1, 2, 3} {
			mon.router.Receive(&neko.Message{
				Type:   neko.MsgHeartbeat,
				From:   multiMonitorID + 1 + neko.ProcessID(i),
				Seq:    seq,
				SentAt: mon.ctx.Clock.Now(),
			})
		}
	}
	mon.router.Receive(&neko.Message{Type: neko.MsgHeartbeat, From: multiMonitorID + 1, Seq: 2, SentAt: mon.ctx.Clock.Now()})
	// Once every peer is suspected the counters stop moving.
	if !waitFor(t, 5*time.Second, func() bool { return mon.Snapshot().Suspected == peers }) {
		t.Fatalf("peers never all suspected: %+v", mon.Snapshot())
	}
	snap := mon.Snapshot()
	if tot := snap.Totals; tot.Heartbeats != 3*peers+1 || tot.Stale != 1 || tot.Suspicions < peers {
		t.Errorf("snapshot totals %+v, want %d heartbeats, 1 stale, >= %d suspicions", tot, 3*peers+1, peers)
	}
	if got := mon.Stats().Detector; got != snap.Totals {
		t.Errorf("Stats().Detector = %+v, Snapshot().Totals = %+v", got, snap.Totals)
	}
}

// TestMultiMonitorReaddFreshDetector is the restart/readdress regression:
// a peer removed while suspected and re-added under the same name (and
// address) must get a brand-new detector with no stale suspicion state.
func TestMultiMonitorReaddFreshDetector(t *testing.T) {
	addrs := freeUDPPorts(t, 2)
	monAddr, aAddr := addrs[0], addrs[1]
	const eta = 20 * time.Millisecond

	mon, err := NewMultiMonitor(monAddr, WithEta(eta), WithPeer("db", aAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	hb, err := RunHeartbeater(HeartbeaterConfig{Listen: aAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	_ = hb.Close()
	if !waitFor(t, 3*time.Second, func() bool {
		s, _ := mon.Suspected("db")
		return s
	}) {
		t.Fatal("dead peer never suspected")
	}

	if err := mon.RemovePeer("db"); err != nil {
		t.Fatal(err)
	}
	if err := mon.AddPeer("db", aAddr); err != nil {
		t.Fatal(err)
	}
	s, err := mon.PeerStatusOf("db")
	if err != nil {
		t.Fatal(err)
	}
	if s.Suspected {
		t.Error("re-added peer inherited stale suspicion")
	}
	if s.DetectorStats != (DetectorStats{}) {
		t.Errorf("re-added peer inherited stale counters %+v", s.DetectorStats)
	}

	// The restarted process heartbeats again from the same address.
	hb2, err := RunHeartbeater(HeartbeaterConfig{Listen: aAddr, Remote: monAddr, Eta: eta})
	if err != nil {
		t.Fatal(err)
	}
	defer hb2.Close()
	if !waitFor(t, 3*time.Second, func() bool {
		s, err := mon.PeerStatusOf("db")
		return err == nil && s.Heartbeats >= 5 && !s.Suspected
	}) {
		t.Fatal("re-added peer not monitored afresh")
	}
}

// TestMultiMonitorChurnTimerLeak is the scheduler-leak regression: after
// add/heartbeat/remove cycles no deadline may stay queued on the shard
// timing wheels (RemovePeer's detector Stop must unlink synchronously) and
// every lazy wheel driver must exit once its shard empties, returning the
// process to its pre-churn goroutine count.
func TestMultiMonitorChurnTimerLeak(t *testing.T) {
	addrs := freeUDPPorts(t, 1)
	// A long eta keeps the armed deadlines comfortably in the future, so
	// the mid-cycle queue-depth assertion races with nothing.
	mon, err := NewMultiMonitor(addrs[0], WithEta(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if st := mon.SchedulerStats(); st.Wheels != len(mon.shards) || st.Timers != 0 {
		t.Fatalf("fresh monitor scheduler stats %+v, want %d idle wheels", st, len(mon.shards))
	}
	baseline := runtime.NumGoroutine()

	const (
		cycles = 3
		peers  = 64
	)
	for c := 0; c < cycles; c++ {
		names := make([]string, peers)
		for i := range names {
			names[i] = fmt.Sprintf("churn-%d-%d", c, i)
			if err := mon.AddPeer(names[i], fmt.Sprintf("127.0.0.1:%d", 30001+i)); err != nil {
				t.Fatal(err)
			}
		}
		// One heartbeat per peer arms its detector deadline on the shard
		// wheel. Process ids are assigned sequentially from the monitor's
		// own id, in AddPeer order (same convention the cluster benchmark
		// relies on).
		now := mon.ctx.Clock.Now()
		for i := range names {
			mon.router.Receive(&neko.Message{
				Type:   neko.MsgHeartbeat,
				From:   multiMonitorID + 1 + neko.ProcessID(c*peers+i),
				Seq:    1,
				SentAt: now,
			})
		}
		if st := mon.SchedulerStats(); st.Timers != peers {
			t.Fatalf("cycle %d: %d deadlines queued after heartbeats, want %d", c, st.Timers, peers)
		}
		for _, name := range names {
			if err := mon.RemovePeer(name); err != nil {
				t.Fatal(err)
			}
		}
		if st := mon.SchedulerStats(); st.Timers != 0 {
			t.Fatalf("cycle %d: %d deadlines leaked after removal", c, st.Timers)
		}
	}

	// The shard drivers park-then-exit asynchronously after their last
	// timer is stopped; wait for the goroutine count to drain back.
	if !waitFor(t, 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline
	}) {
		t.Errorf("goroutines leaked after churn: %d, baseline %d",
			runtime.NumGoroutine(), baseline)
	}
}

// TestMultiMonitorChurnRace hammers queries concurrently with membership
// churn; under -race it is the regression test for the sharded peer table.
func TestMultiMonitorChurnRace(t *testing.T) {
	addrs := freeUDPPorts(t, 1)
	mon, err := NewMultiMonitor(addrs[0], WithEta(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const (
		writers = 4
		readers = 4
		rounds  = 250
		cycle   = 16
	)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		w := w
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("peer-%d-%d", w, i%cycle)
				addr := fmt.Sprintf("127.0.0.1:%d", 20000+w*cycle+i%cycle)
				if err := mon.AddPeer(name, addr); err != nil {
					t.Errorf("add %s: %v", name, err)
					return
				}
				if _, err := mon.Suspected(name); err != nil {
					t.Errorf("query %s: %v", name, err)
					return
				}
				if err := mon.RemovePeer(name); err != nil {
					t.Errorf("remove %s: %v", name, err)
					return
				}
			}
		}()
	}
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = mon.Status()
				_ = mon.Snapshot()
				_ = mon.Peers()
				_, _ = mon.Suspected("peer-0-0")
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if n := mon.Peers(); n != 0 {
		t.Errorf("peers leaked after churn: %d", n)
	}
}
