package transport

import (
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"wanfd/internal/neko"
	"wanfd/internal/sched"
)

// encodePacket is the test-side wire encoder: one heartbeat from the given
// peer, stamped sentUnix nanoseconds.
func encodePacket(t testing.TB, from, to neko.ProcessID, seq int64, sentUnix int64) []byte {
	t.Helper()
	buf, err := Encode(nil, &neko.Message{From: from, To: to, Type: neko.MsgHeartbeat, Seq: seq}, sentUnix)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDecodeNeverAliasesPacket pins the aliasing contract of DecodeInto:
// the receive loops reuse one packet buffer across datagrams, so a decoded
// message that referenced pkt would be silently corrupted by the next
// read. Decode the first datagram, overwrite the shared buffer with a
// second, and the first message must be untouched.
func TestDecodeNeverAliasesPacket(t *testing.T) {
	shared := make([]byte, maxPacketSize)
	pkt1, err := Encode(nil, &neko.Message{
		From: 1, To: 2, Type: neko.MsgHeartbeat, Seq: 7, Payload: []byte("first datagram"),
	}, 1111)
	if err != nil {
		t.Fatal(err)
	}
	n1 := copy(shared, pkt1)

	var m1 neko.Message
	sent1, err := DecodeInto(&m1, shared[:n1])
	if err != nil {
		t.Fatal(err)
	}

	// Second datagram arrives into the same buffer.
	pkt2, err := Encode(nil, &neko.Message{
		From: 9, To: 9, Type: neko.MessageType(3), Seq: 999, Payload: []byte("SECOND OVERWRITES!!"),
	}, 2222)
	if err != nil {
		t.Fatal(err)
	}
	copy(shared, pkt2)

	if m1.From != 1 || m1.To != 2 || m1.Seq != 7 || m1.Type != neko.MsgHeartbeat {
		t.Errorf("first message header corrupted by second datagram: %+v", m1)
	}
	if string(m1.Payload) != "first datagram" {
		t.Errorf("first message payload corrupted: %q", m1.Payload)
	}
	if sent1 != 1111 {
		t.Errorf("sent1 = %d, want 1111", sent1)
	}
}

// batchRecv records ReceiveBatch deliveries; it copies message values out
// (the pooled pointers must not be retained).
type batchRecv struct {
	mu   sync.Mutex
	msgs []neko.Message
	ats  []time.Duration
}

func (r *batchRecv) Receive(m *neko.Message) { r.ReceiveBatch([]*neko.Message{m}, 0) }

func (r *batchRecv) ReceiveAt(m *neko.Message, at time.Duration) {
	r.ReceiveBatch([]*neko.Message{m}, at)
}

func (r *batchRecv) ReceiveBatch(ms []*neko.Message, at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		r.msgs = append(r.msgs, *m)
		r.ats = append(r.ats, at)
	}
}

func (r *batchRecv) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

// waitReceived spins until the endpoint has delivered want messages.
func waitReceived(t *testing.T, n *UDPNetwork, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, received, _ := n.Stats(); received >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	_, received, _ := n.Stats()
	t.Fatalf("received %d messages, want %d", received, want)
}

// TestBatchedEndToEnd drives real datagrams through the batched pipeline:
// two loopback endpoints, heartbeats from b to a, delivered to a
// BatchReceiver with a per-batch stamp.
func TestBatchedEndToEnd(t *testing.T) {
	a, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDPNetwork(UDPConfig{
		LocalID: 2,
		Listen:  "127.0.0.1:0",
		Peers:   map[neko.ProcessID]string{1: a.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	rcv := &batchRecv{}
	if _, err := a.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	for i := int64(0); i < total; i++ {
		sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: i, SentAt: b.Clock().Now()})
	}
	waitReceived(t, a, total)

	rcv.mu.Lock()
	defer rcv.mu.Unlock()
	seen := make(map[int64]bool)
	for i, m := range rcv.msgs {
		if m.From != 2 {
			t.Errorf("message %d attributed to %d, want 2", i, m.From)
		}
		if m.SentAt < -time.Second || m.SentAt > time.Minute {
			t.Errorf("implausible mapped SentAt %v", m.SentAt)
		}
		if rcv.ats[i] <= 0 {
			t.Errorf("message %d delivered with non-positive stamp %v", i, rcv.ats[i])
		}
		seen[m.Seq] = true
	}
	if len(seen) != total {
		t.Errorf("saw %d distinct seqs, want %d", len(seen), total)
	}
	st := a.IngestStats()
	if st.Drains == 0 {
		t.Error("no drain cycles counted")
	}
	if st.RingDrops != 0 {
		t.Errorf("ring drops = %d, want 0 at this load", st.RingDrops)
	}
}

// TestInjectorBatchStamp checks the batch-stamping semantics (DESIGN.md
// §10): every message of one injected batch carries the same receive
// stamp, the stamp lies within the drain cycle, and the cycle itself is
// far shorter than one scheduler tick — the bound on the per-heartbeat
// arrival-time skew δ_i introduced by batching.
func TestInjectorBatchStamp(t *testing.T) {
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.AddPeer(2, "127.0.0.1:40001"); err != nil {
		t.Fatal(err)
	}
	rcv := &batchRecv{}
	if _, err := n.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddrPort("127.0.0.1:40001")
	pkts := make([][]byte, maxDrainBatch)
	srcs := make([]netip.AddrPort, maxDrainBatch)
	sentUnix := n.WallTime().UnixNano()
	for i := range pkts {
		pkts[i] = encodePacket(t, 2, 1, int64(i), sentUnix)
		srcs[i] = src
	}
	inj := n.NewInjector()
	before := n.Clock().Now()
	inj.InjectBatch(pkts, srcs)
	after := n.Clock().Now()
	waitReceived(t, n, maxDrainBatch)

	rcv.mu.Lock()
	defer rcv.mu.Unlock()
	stamp := rcv.ats[0]
	for i, at := range rcv.ats {
		if at != stamp {
			t.Fatalf("message %d stamped %v, batch stamp %v — one batch must share one stamp", i, at, stamp)
		}
	}
	if stamp < before || stamp > after {
		t.Errorf("batch stamp %v outside drain cycle [%v, %v]", stamp, before, after)
	}
	// The drain cycle bounds the arrival-time skew of the whole batch; it
	// must stay well under one scheduler tick or batching would move
	// freshness deadlines. Allow a generous multiple under the race
	// detector's instrumentation overhead.
	bound := sched.DefaultTick
	if raceEnabled {
		bound *= 10
	}
	if cycle := after - before; cycle >= bound {
		t.Errorf("drain cycle %v exceeds the δ skew bound %v", cycle, bound)
	}
}

// TestPoisonOnRetention pins the pool-recycling contract: a receiver that
// retains a pooled heartbeat past its ReceiveBatch call observes poisoned
// sentinels on the next delivery (race builds only — poisoning is free
// in normal builds).
func TestPoisonOnRetention(t *testing.T) {
	if !raceEnabled {
		t.Skip("poisoning is active only under -race")
	}
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.AddPeer(2, "127.0.0.1:40002"); err != nil {
		t.Fatal(err)
	}
	// The receiver illegally retains a heartbeat from the seed burst and
	// inspects it when a later trigger packet arrives — same peer, same
	// shard, same consumer goroutine, so the recycle between the
	// deliveries is ordered before the inspection. It retains the LAST
	// message of the burst: the freelist is FIFO, so the trigger packet
	// reuses an earlier recycled message, never the retained one.
	const seed = 4
	rcv := &retainRecv{arm: seed, verdict: make(chan bool, 1)}
	if _, err := n.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddrPort("127.0.0.1:40002")
	inj := n.NewInjector()
	sentUnix := n.WallTime().UnixNano()
	pkts := make([][]byte, seed)
	srcs := make([]netip.AddrPort, seed)
	for i := range pkts {
		pkts[i] = encodePacket(t, 2, 1, int64(i), sentUnix)
		srcs[i] = src
	}
	inj.InjectBatch(pkts, srcs)
	waitReceived(t, n, seed)
	inj.InjectBatch([][]byte{encodePacket(t, 2, 1, 99, sentUnix)}, []netip.AddrPort{src})
	select {
	case poisoned := <-rcv.verdict:
		if !poisoned {
			t.Error("retained heartbeat not poisoned after recycle — aliasing bugs would stay silent")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("trigger delivery never arrived")
	}
}

// retainRecv is only ever called from one shard consumer goroutine, so its
// plain fields need no locking.
type retainRecv struct {
	seen     int
	arm      int
	retained *neko.Message
	verdict  chan bool
}

func (r *retainRecv) Receive(*neko.Message) {}

func (r *retainRecv) ReceiveBatch(ms []*neko.Message, _ time.Duration) {
	if r.seen < r.arm {
		r.seen += len(ms)
		r.retained = ms[len(ms)-1]
		return
	}
	r.verdict <- r.retained.From == -999 && r.retained.To == -999
}

// TestBatchedReceiveZeroAlloc pins the tentpole property: once the message
// pool is warm, the batched receive path — decode, peer resolution, batch
// stamping, ring hand-off, router-free delivery, recycle — performs zero
// allocations per heartbeat.
func TestBatchedReceiveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("poisoning discards payload buffers; alloc accounting holds only in normal builds")
	}
	n, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	if err := n.AddPeer(2, "127.0.0.1:40003"); err != nil {
		t.Fatal(err)
	}
	var delivered int
	if _, err := n.Attach(1, countRecv{&delivered}); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddrPort("127.0.0.1:40003")
	const batch = 32
	pkts := make([][]byte, batch)
	srcs := make([]netip.AddrPort, batch)
	sentUnix := n.WallTime().UnixNano()
	for i := range pkts {
		pkts[i] = encodePacket(t, 2, 1, int64(i), sentUnix)
		srcs[i] = src
	}
	inj := n.NewInjector()
	var sent uint64
	inject := func() {
		inj.InjectBatch(pkts, srcs)
		sent += batch
		// Wait for the consumer to finish so recycled messages are back
		// in the pool before the next round (and so the consumer's own
		// allocations, if any, are charged to the measurement).
		for {
			_, received, _ := n.Stats()
			if received >= sent {
				return
			}
			runtime.Gosched()
		}
	}
	// Warm-up: populate the message pool and the consumer's batch slice.
	for i := 0; i < 50; i++ {
		inject()
	}
	if avg := testing.AllocsPerRun(100, inject); avg != 0 {
		t.Errorf("steady-state batched receive allocates %.2f/run (batch of %d), want 0", avg, batch)
	}
	if misses := n.IngestStats().PoolMisses; misses > batch+maxDrainBatch {
		t.Errorf("pool misses %d after warm-up, want at most the initial fill", misses)
	}
}

type countRecv struct{ n *int }

func (c countRecv) Receive(*neko.Message) { *c.n++ }

func (c countRecv) ReceiveBatch(ms []*neko.Message, _ time.Duration) { *c.n += len(ms) }

// TestReusePortReaders exercises the SO_REUSEPORT multi-reader
// configuration where the platform supports it: all datagrams must arrive
// exactly once regardless of which socket the kernel picked.
func TestReusePortReaders(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("SO_REUSEPORT readers are linux-only")
	}
	a, err := NewUDPNetwork(UDPConfig{LocalID: 1, Listen: "127.0.0.1:0", Readers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewUDPNetwork(UDPConfig{
		LocalID: 2,
		Listen:  "127.0.0.1:0",
		Peers:   map[neko.ProcessID]string{1: a.LocalAddr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	rcv := &batchRecv{}
	if _, err := a.Attach(1, rcv); err != nil {
		t.Fatal(err)
	}
	sender, err := b.Attach(2, recvFunc(func(*neko.Message) {}))
	if err != nil {
		t.Fatal(err)
	}
	const total = 200
	for i := int64(0); i < total; i++ {
		sender.Send(&neko.Message{From: 2, To: 1, Type: neko.MsgHeartbeat, Seq: i, SentAt: b.Clock().Now()})
	}
	waitReceived(t, a, total)
	rcv.mu.Lock()
	defer rcv.mu.Unlock()
	seen := make(map[int64]int)
	for _, m := range rcv.msgs {
		seen[m.Seq]++
	}
	if len(seen) != total {
		t.Errorf("saw %d distinct seqs, want %d", len(seen), total)
	}
	for seq, c := range seen {
		if c != 1 {
			t.Errorf("seq %d delivered %d times", seq, c)
		}
	}
}
