package wanfd

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/neko"
	"wanfd/internal/telemetry"
	"wanfd/internal/transport"
)

// TestScaleProfileTiers pins the geometry each expected-peer tier
// selects: the default tier must stay byte-for-byte what pre-profile
// monitors ran with, and the larger tiers must widen every axis.
func TestScaleProfileTiers(t *testing.T) {
	cases := []struct {
		peers int
		want  scaleProfile
	}{
		{0, scaleProfile{shards: 16}},
		{1 << 15, scaleProfile{shards: 16}},
		{1<<15 + 1, scaleProfile{shards: 32, fineSlots: 512, coarseSlots: 128}},
		{1 << 18, scaleProfile{shards: 32, fineSlots: 512, coarseSlots: 128}},
		{1<<18 + 1, scaleProfile{shards: 64, fineSlots: 1024, coarseSlots: 256}},
		{1 << 20, scaleProfile{shards: 64, fineSlots: 1024, coarseSlots: 256}},
	}
	for _, c := range cases {
		if got := profileFor(c.peers); got != c.want {
			t.Errorf("profileFor(%d) = %+v, want %+v", c.peers, got, c.want)
		}
	}
}

// TestMonitorScaleProfileWiring proves WithPipeline's ExpectedPeers
// actually reaches the monitor: the shard slice and wheel count follow
// the selected tier, not the defaults.
func TestMonitorScaleProfileWiring(t *testing.T) {
	addrs := freeUDPPorts(t, 1)
	mon, err := NewMultiMonitor(addrs[0], WithPipeline(PipelineConfig{ExpectedPeers: 1 << 17}))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if len(mon.shards) != 32 || len(mon.wheels) != 32 {
		t.Fatalf("100k-tier monitor has %d shards / %d wheels, want 32/32", len(mon.shards), len(mon.wheels))
	}
	if st := mon.SchedulerStats(); st.Wheels != 32 {
		t.Fatalf("scheduler reports %d wheels, want 32", st.Wheels)
	}
}

// TestMultiMonitorPinnedChurn churns peers through a monitor built with
// PinDrivers, so the pinned shard drivers (LockOSThread +
// sched_setaffinity on linux, thread-lock only elsewhere) run the
// schedule/cancel races the churn produces. The CI race job runs this to
// cover the pinning path under the race detector; the per-wheel detail
// snapshot must also stay consistent with the aggregate.
func TestMultiMonitorPinnedChurn(t *testing.T) {
	addrs := freeUDPPorts(t, 1)
	mon, err := NewMultiMonitor(addrs[0],
		WithEta(100*time.Millisecond),
		WithPipeline(PipelineConfig{PinDrivers: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const peers = 128
	for c := 0; c < 2; c++ {
		for i := 0; i < peers; i++ {
			name := fmt.Sprintf("pin-%03d", i)
			if err := mon.AddPeer(name, fmt.Sprintf("127.0.0.1:%d", 41001+i)); err != nil {
				t.Fatalf("cycle %d add %s: %v", c, name, err)
			}
		}
		// One heartbeat per peer arms its freshness deadline (AddPeer alone
		// does not).
		for i := 0; i < peers; i++ {
			heartbeatFrom(mon, peerIDOf(t, mon, fmt.Sprintf("pin-%03d", i)), 1)
		}
		if st := mon.SchedulerStats(); st.Timers != peers {
			t.Fatalf("cycle %d: %d armed deadlines, want one per peer (%d)", c, st.Timers, peers)
		}
		// Let the pinned drivers take some wakeups mid-churn.
		time.Sleep(20 * time.Millisecond)
		detail := mon.SchedulerStatsDetail()
		if len(detail) != len(mon.wheels) {
			t.Fatalf("detail has %d wheels, monitor has %d", len(detail), len(mon.wheels))
		}
		var sum int
		for _, ws := range detail {
			sum += ws.FineSlotsOccupied + ws.CoarseSlotsOccupied + ws.OverflowTimers
		}
		if sum == 0 {
			t.Fatalf("cycle %d: %d armed deadlines but no occupancy in any wheel detail", c, peers)
		}
		for i := 0; i < peers; i++ {
			if err := mon.RemovePeer(fmt.Sprintf("pin-%03d", i)); err != nil {
				t.Fatalf("cycle %d remove %d: %v", c, i, err)
			}
		}
		if st := mon.SchedulerStats(); st.Timers != 0 {
			t.Fatalf("cycle %d: %d deadlines still armed after drain", c, st.Timers)
		}
	}
}

// TestMultiMonitorChurnCompaction cycles the full peer set through
// AddPeer/RemovePeer and asserts the per-shard arenas and tables return
// to baseline each time: zero live entries after a drain, tombstones
// compacted below cap/4, probe lengths bounded, and no capacity ratchet
// across identical cycles.
func TestMultiMonitorChurnCompaction(t *testing.T) {
	addrs := freeUDPPorts(t, 1)
	mon, err := NewMultiMonitor(addrs[0], WithEta(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const (
		cycles = 4
		peers  = 512
	)
	caps := make([]int, len(mon.shards))
	idCaps := make([]int, len(mon.shards))
	for c := 0; c < cycles; c++ {
		for i := 0; i < peers; i++ {
			name := fmt.Sprintf("churn-%04d", i)
			if err := mon.AddPeer(name, fmt.Sprintf("127.0.0.1:%d", 40001+i)); err != nil {
				t.Fatalf("cycle %d add %s: %v", c, name, err)
			}
		}
		if got := mon.Peers(); got != peers {
			t.Fatalf("cycle %d: monitor reports %d peers, want %d", c, got, peers)
		}
		for i := 0; i < peers; i++ {
			if err := mon.RemovePeer(fmt.Sprintf("churn-%04d", i)); err != nil {
				t.Fatalf("cycle %d remove %d: %v", c, i, err)
			}
		}
		for si := range mon.shards {
			s := &mon.shards[si]
			s.mu.RLock()
			tab, ids, ents := s.tab.Stats(), s.ids.Stats(), s.ents.Stats()
			s.mu.RUnlock()
			if tab.Live != 0 || ids.Live != 0 || ents.Live != 0 {
				t.Fatalf("cycle %d shard %d: %d name / %d id table and %d arena entries live after drain",
					c, si, tab.Live, ids.Live, ents.Live)
			}
			for _, ts := range []struct {
				name string
				st   arena.TableStats
				caps []int
			}{{"name", tab, caps}, {"id", ids, idCaps}} {
				if ts.st.Tombstones*4 > ts.st.Cap {
					t.Fatalf("cycle %d shard %d: %d %s-table tombstones at cap %d, want compacted below cap/4",
						c, si, ts.st.Tombstones, ts.name, ts.st.Cap)
				}
				if ts.st.MaxProbe > 64 {
					t.Fatalf("cycle %d shard %d: %s-table MaxProbe %d, want bounded", c, si, ts.name, ts.st.MaxProbe)
				}
				if c == 0 {
					ts.caps[si] = ts.st.Cap
				} else if ts.st.Cap > ts.caps[si] {
					t.Fatalf("cycle %d shard %d: %s-table cap grew %d -> %d across identical cycles",
						c, si, ts.name, ts.caps[si], ts.st.Cap)
				}
			}
		}
	}
}

// TestMultiMonitorShardOnce pins that a peer is sharded once: on every
// scale profile, the ingest ring its datagrams queue on, the shard table
// holding its entry and the wheel its deadline arms on are one index.
func TestMultiMonitorShardOnce(t *testing.T) {
	for _, expected := range []int{0, 1<<15 + 1, 1<<18 + 1} {
		mon, err := NewMultiMonitor("127.0.0.1:0", WithEta(time.Minute),
			WithPipeline(PipelineConfig{ExpectedPeers: expected}))
		if err != nil {
			t.Fatal(err)
		}
		want := profileFor(expected).shards
		if len(mon.shards) != want || len(mon.wheels) != want {
			t.Fatalf("ExpectedPeers %d: %d shards / %d wheels, want %d", expected, len(mon.shards), len(mon.wheels), want)
		}
		const peers = 256
		for i := 0; i < peers; i++ {
			name := fmt.Sprintf("once-%03d", i)
			if err := mon.AddPeer(name, fmt.Sprintf("127.0.0.1:%d", 42001+i)); err != nil {
				t.Fatal(err)
			}
			id := peerIDOf(t, mon, name)
			table := -1
			for si := range mon.shards {
				s := &mon.shards[si]
				s.mu.RLock()
				_, byName := s.find(peerNameHash(name), name)
				_, byID := s.ids.Get(uint64(id))
				s.mu.RUnlock()
				if byName != byID {
					t.Fatalf("ExpectedPeers %d: %s is in shard %d's name table %v but its id table %v", expected, name, si, byName, byID)
				}
				if byName {
					table = si
				}
			}
			before := mon.SchedulerStatsDetail()
			heartbeatFrom(mon, id, 1)
			wheel := -1
			for wi, ws := range mon.SchedulerStatsDetail() {
				if ws.Scheduled == before[wi].Scheduled+1 {
					wheel = wi
				}
			}
			if ring := mon.net.IngestRing(id); ring != table || wheel != table {
				t.Fatalf("ExpectedPeers %d: %s has ingest ring %d, shard %d, wheel %d", expected, name, ring, table, wheel)
			}
		}
		_ = mon.Close()
	}
}

// TestMultiMonitorStaleIDUnrouted pins that a removed peer's id dies with
// it: after RemovePeer and a re-add of the same name and address,
// datagrams carrying the old id — one still in flight from before the
// removal, and one arriving on the wire from an unregistered source — reach
// no detector and are counted unrouted.
func TestMultiMonitorStaleIDUnrouted(t *testing.T) {
	reg := telemetry.NewRegistry(16)
	mon, err := NewMultiMonitor("127.0.0.1:0", WithEta(time.Minute), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	const addr = "127.0.0.1:40001"
	if err := mon.AddPeer("db", addr); err != nil {
		t.Fatal(err)
	}
	old := peerIDOf(t, mon, "db")
	if err := mon.RemovePeer("db"); err != nil {
		t.Fatal(err)
	}
	if err := mon.AddPeer("db", addr); err != nil {
		t.Fatal(err)
	}
	if id := peerIDOf(t, mon, "db"); id == old {
		t.Fatalf("re-added peer reuses id %d", id)
	}

	heartbeatFrom(mon, old, 1)
	pkt, err := transport.Encode(nil, &neko.Message{Type: neko.MsgHeartbeat, From: old, To: multiMonitorID, Seq: 2},
		mon.net.WallTime().UnixNano())
	if err != nil {
		t.Fatal(err)
	}
	mon.net.NewInjector().InjectBatch([][]byte{pkt}, []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:40999")})
	if !waitFor(t, 5*time.Second, func() bool { _, rcv, _ := mon.net.Stats(); return rcv == 1 }) {
		t.Fatal("injected datagram never reached dispatch")
	}
	if st, err := mon.PeerStatusOf("db"); err != nil || st.Heartbeats != 0 {
		t.Fatalf("re-added peer status %+v (%v), want 0 heartbeats", st, err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := telemetry.MetricRouterUnrouted + " 2\n"; !strings.Contains(buf.String(), want) {
		t.Errorf("exposition lacks %q:\n%s", want, buf.String())
	}
	heartbeatFrom(mon, peerIDOf(t, mon, "db"), 3)
	if st, _ := mon.PeerStatusOf("db"); st.Heartbeats != 1 {
		t.Errorf("re-added peer counted %d heartbeats from its own id, want 1", st.Heartbeats)
	}
}

// TestMultiMonitorFailedAddPeerReleasesAddress pins that a refused join
// never leaves its address registered with the transport: every address
// a failed AddPeer named can be added afterwards, under deterministic
// refusals and under a race of same-name joins.
func TestMultiMonitorFailedAddPeerReleasesAddress(t *testing.T) {
	mon, err := NewMultiMonitor("127.0.0.1:0", WithEta(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.AddPeer("alpha", "127.0.0.1:40001"); err != nil {
		t.Fatal(err)
	}
	if err := mon.AddPeer("alpha", "127.0.0.1:40002"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := mon.AddPeer("beta", "127.0.0.1:40002"); err != nil {
		t.Fatalf("address of a refused duplicate stayed registered: %v", err)
	}

	const (
		rounds = 16
		racers = 8
	)
	racerAddr := func(r, i int) string { return fmt.Sprintf("127.0.0.1:%d", 40100+r*racers+i) }
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		var won atomic.Int32
		name := fmt.Sprintf("gamma-%d", r)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if mon.AddPeer(name, racerAddr(r, i)) == nil {
					won.Add(1)
				}
			}(i)
		}
		wg.Wait()
		if won.Load() != 1 {
			t.Fatalf("%d concurrent joins of %s succeeded, want 1", won.Load(), name)
		}
		if err := mon.RemovePeer(name); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < racers; i++ {
			if err := mon.AddPeer(fmt.Sprintf("delta-%d-%d", r, i), racerAddr(r, i)); err != nil {
				t.Fatalf("address %s stayed registered after a refused join: %v", racerAddr(r, i), err)
			}
		}
	}
	if got, want := mon.net.Peers(), mon.Peers(); got != want {
		t.Errorf("transport holds %d addresses for %d members", got, want)
	}
}

// TestMultiMonitorDispatchChurnRace runs the shard consumers' dispatch
// concurrently with membership churn: datagrams from the churned peers'
// addresses are injected through the real ingest pipeline, and stale ids
// are dispatched directly, while writers add and remove those peers.
// Under -race it is the regression test for the shard lock guarding
// dispatch; afterwards every datagram must be accounted for.
func TestMultiMonitorDispatchChurnRace(t *testing.T) {
	mon, err := NewMultiMonitor("127.0.0.1:0", WithEta(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	const (
		writers = 4
		cycle   = 8
		rounds  = 200
	)
	addr := func(w, i int) string { return fmt.Sprintf("127.0.0.1:%d", 21000+w*cycle+i) }
	var pkts [][]byte
	var srcs []netip.AddrPort
	for w := 0; w < writers; w++ {
		for i := 0; i < cycle; i++ {
			pkt, err := transport.Encode(nil, &neko.Message{Type: neko.MsgHeartbeat, To: multiMonitorID, Seq: 1},
				mon.net.WallTime().UnixNano())
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, pkt)
			srcs = append(srcs, netip.MustParseAddrPort(addr(w, i)))
		}
	}

	var writerWG, loadWG sync.WaitGroup
	stop := make(chan struct{})
	injected := 0
	loadWG.Add(2)
	go func() {
		defer loadWG.Done()
		inj := mon.net.NewInjector()
		for {
			select {
			case <-stop:
				return
			default:
			}
			inj.InjectBatch(pkts, srcs)
			injected += len(pkts)
			// Bound the run-ahead so the rings never overflow.
			for {
				_, rcv, _ := mon.net.Stats()
				if injected-int(rcv) <= 256 {
					break
				}
				runtime.Gosched()
			}
		}
	}()
	go func() {
		defer loadWG.Done()
		for seq := int64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			// The ids of the latest joins, live or already removed.
			last := mon.nextID.Load()
			for c := last - 8; c <= last; c++ {
				for s := range mon.shards {
					heartbeatFrom(mon, neko.ProcessID(c<<peerShardBits|int64(s)), seq)
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for r := 0; r < rounds; r++ {
				i := r % cycle
				name := fmt.Sprintf("peer-%d-%d", w, i)
				if err := mon.AddPeer(name, addr(w, i)); err != nil {
					t.Errorf("add %s: %v", name, err)
					return
				}
				if err := mon.RemovePeer(name); err != nil {
					t.Errorf("remove %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	loadWG.Wait()
	if !waitFor(t, 5*time.Second, func() bool {
		_, rcv, _ := mon.net.Stats()
		return int(rcv)+int(mon.net.IngestStats().RingDrops) == injected
	}) {
		_, rcv, _ := mon.net.Stats()
		t.Fatalf("%d of %d injected datagrams delivered", rcv, injected)
	}
	if n := mon.Peers(); n != 0 {
		t.Errorf("peers leaked after churn: %d", n)
	}
	if n := mon.net.Peers(); n != 0 {
		t.Errorf("transport addresses leaked after churn: %d", n)
	}
}
