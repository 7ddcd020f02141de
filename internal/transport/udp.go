package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"wanfd/internal/arena"
	"wanfd/internal/clock"
	"wanfd/internal/freelist"
	"wanfd/internal/neko"
	"wanfd/internal/sched"
	"wanfd/internal/sim"
	"wanfd/internal/telemetry"
)

// checkShards validates a configured pipeline shard count: zero (use the
// default) or a power of two no larger than 64.
func checkShards(name string, n int) error {
	if n == 0 {
		return nil
	}
	if n < 0 || n > 64 || n&(n-1) != 0 {
		return fmt.Errorf("transport: %s must be a power of two in [1,64], got %d", name, n)
	}
	return nil
}

// shardCount resolves a configured shard count against its default.
func shardCount(configured, def int) int {
	if configured > 0 {
		return configured
	}
	return def
}

// UDPConfig parameterizes a UDP network endpoint.
type UDPConfig struct {
	// LocalID is the process id of this host.
	LocalID neko.ProcessID
	// Listen is the local UDP address, e.g. ":7007" or "127.0.0.1:0".
	Listen string
	// Peers maps remote process ids to their UDP addresses.
	Peers map[neko.ProcessID]string
	// Telemetry, when non-nil, receives live packet counters
	// (sent/received/decode errors/drops). Nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Readers is the number of reader sockets (and drain goroutines) the
	// batched pipeline opens via SO_REUSEPORT; 0 or 1 means a single
	// reader. Values above 1 are honoured only where SO_REUSEPORT is
	// available (Linux) and are otherwise clamped to 1.
	Readers int
	// EgressBatch is the maximum datagrams per egress flush (sendmmsg
	// vector length on linux); 0 selects defaultEgressBatch.
	EgressBatch int
	// EgressFlushInterval bounds how long a partial egress batch may wait
	// for batch-mates before being flushed anyway. 0 (the default) flushes
	// partial batches immediately: batching then comes only from natural
	// send bursts and never delays a heartbeat.
	EgressFlushInterval time.Duration
	// IngestShards and EgressShards size the batched pipelines' fan-in
	// lanes. Zero selects the defaults (16 ingest, 8 egress); non-zero
	// values must be powers of two and at most 64 (the ingest batch
	// grouping uses a 64-bit touched mask). Scale profiles widen both at
	// high peer counts.
	IngestShards int
	EgressShards int
	// ExpectedPeers, when non-zero, pre-sizes the peer tables and the
	// ingest message pool for that many registered peers, so reaching the
	// expected population never rehashes under load.
	ExpectedPeers int
}

// peerState is one registered peer: its transport identity plus the
// estimated peer-minus-local clock offset (nanoseconds), stored atomically
// so the receive path reads it without taking any lock.
type peerState struct {
	id     neko.ProcessID
	ap     netip.AddrPort
	offset atomic.Int64
}

// receiverBox caches the Attach-time interface assertions so the hot path
// pays zero type switches: tr/br are non-nil when the receiver supports
// timed or batched delivery.
type receiverBox struct {
	r  neko.Receiver
	tr neko.TimedReceiver
	br neko.BatchReceiver
}

// UDPNetwork implements neko.Network over a real UDP socket for exactly one
// local process. Received heartbeat timestamps (Unix nanoseconds at the
// sender, per the paper's NTP-synchronized time base) are mapped onto the
// local run clock, after subtracting the peer clock offset estimated by
// SyncWith.
//
// Reception runs through the batched ingest pipeline (see ingest.go):
// non-blocking drain loops pull every queued datagram per readiness
// wakeup, decode into pooled messages, stamp each drained batch with a
// single clock read, and hand per-shard batches to a consumer goroutine
// over bounded lock-free rings — zero allocations and no detector mutex
// on the drain path. Sending runs through the batched egress pipeline
// (see egress.go).
type UDPNetwork struct {
	cfg       UDPConfig
	conn      *net.UDPConn
	epoch     time.Time
	epochNano int64
	clk       *sim.RealClock
	// timers schedules the endpoint's own deadlines (the SyncWith round
	// timeout) on the shared timing wheel. Its driver goroutine is lazy:
	// an endpoint that never syncs never starts it.
	timers *sched.Wheel

	// peerMu guards the peer table, which is mutable at runtime (AddPeer/
	// RemovePeer) so a cluster monitor can change membership without
	// dropping the socket. The batched drain loop takes the read lock once
	// per batch, not once per packet.
	//
	// Peer records live in an index-addressed arena (one dense slab set
	// instead of one heap object per peer — see internal/arena); the three
	// indexes below map lookup keys to arena indices through open-addressed
	// tables, so registering a millionth peer costs no per-peer map entry
	// and the GC never walks a per-peer pointer graph. A *peerState from
	// peerArena is only valid while peerMu is held (RemovePeer frees and
	// zeroes the record under the write lock), so every accessor copies
	// what it needs out before unlocking.
	peerMu    sync.RWMutex
	peerArena *arena.Arena[peerState]
	// byID keys on the process id. byAddr4/byAddr6 index peers by source
	// address for receive attribution: IPv4 endpoints (the common case)
	// pack address and port into one uint64 key; IPv6 endpoints pack the
	// 16 address bytes into a two-uint64 key, with the port (which does
	// not fit) confirmed against the arena record.
	byID    *arena.Map64
	byAddr4 *arena.Map64
	byAddr6 *arena.Map128

	receiver atomic.Pointer[receiverBox]
	attached atomic.Bool

	mu       sync.Mutex // guards the time-sync exchange state below
	pending  map[int64]chan clock.Sample
	nextSync int64

	// bufs recycles egress packet buffers so Encode never allocates on the
	// steady-state send path; the ingest side has its own message pool.
	bufs *freelist.Pool[[]byte]

	// ingest is the batched receive pipeline.
	ingest *ingestState
	// egress is the batched send pipeline.
	egress *egressState
	// extra are the SO_REUSEPORT reader sockets beyond conn.
	extra []*net.UDPConn

	wg     sync.WaitGroup
	closed chan struct{}

	sent       atomic.Uint64
	received   atomic.Uint64
	malformed  atomic.Uint64
	sendErrors atomic.Uint64

	// Live telemetry counters; each is nil (a no-op) without a registry.
	mSent, mReceived, mDecodeErr, mDropped, mSendErr *telemetry.Counter
}

// NewUDPNetwork opens the socket and starts the ingest and egress
// pipelines. Close must be called to release the socket.
func NewUDPNetwork(cfg UDPConfig) (*UDPNetwork, error) {
	if cfg.Listen == "" {
		return nil, fmt.Errorf("transport: missing listen address")
	}
	if err := checkShards("IngestShards", cfg.IngestShards); err != nil {
		return nil, err
	}
	if err := checkShards("EgressShards", cfg.EgressShards); err != nil {
		return nil, err
	}
	hint := cfg.ExpectedPeers
	if hint < len(cfg.Peers) {
		hint = len(cfg.Peers)
	}
	conn, err := listenUDP(cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", cfg.Listen, err)
	}
	clk := sim.NewRealClock()
	n := &UDPNetwork{
		cfg:       cfg,
		conn:      conn,
		peerArena: arena.New[peerState](),
		byID:      arena.NewMap64(hint),
		byAddr4:   arena.NewMap64(hint),
		byAddr6:   arena.NewMap128(0),
		epoch:     clk.Epoch(),
		epochNano: clk.Epoch().UnixNano(),
		clk:       clk,
		timers:    sched.NewWheel(sched.Config{Clock: clk}),
		pending:   make(map[int64]chan clock.Sample),
		closed:    make(chan struct{}),
	}
	for id, addr := range cfg.Peers {
		a, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("transport: resolve peer %d %q: %w", id, addr, err)
		}
		if err := n.addPeerLocked(id, unmapAP(a.AddrPort())); err != nil {
			conn.Close()
			return nil, err
		}
	}
	// The egress pipeline can pin a full complement of encoded packets in
	// its shard rings plus one in-flight batch; size the buffer freelist to
	// cover that so a loaded sender still recycles instead of allocating.
	bufCap := shardCount(cfg.EgressShards, egressShards)*egressRingCap + 2*maxEgressBatch + sendBufPoolCap
	n.bufs = freelist.NewPool(bufCap, func() []byte {
		return make([]byte, 0, maxPacketSize)
	})
	if tm := cfg.Telemetry.TransportMetrics(); tm != nil {
		n.mSent, n.mReceived = tm.Sent, tm.Received
		n.mDecodeErr, n.mDropped = tm.DecodeErrors, tm.Dropped
		n.mSendErr = tm.SendErrors
	}
	n.startIngest()
	n.startEgress()
	return n, nil
}

// Clock returns the endpoint's run clock; protocol layers on this host must
// use it so timestamps share the endpoint's epoch.
func (n *UDPNetwork) Clock() sim.Clock { return n.clk }

// WallTime maps the endpoint clock's current reading to an absolute
// wall-clock instant — the sanctioned bridge for on-the-wire Unix
// timestamps and human-readable logs.
func (n *UDPNetwork) WallTime() time.Time { return n.clk.WallTime() }

// wallNano is WallTime as Unix nanoseconds, the unit the wire format and
// the NTP-style sync exchange carry.
func (n *UDPNetwork) wallNano() int64 { return n.clk.WallTime().UnixNano() }

// LocalAddr returns the bound UDP address.
func (n *UDPNetwork) LocalAddr() *net.UDPAddr {
	addr, _ := n.conn.LocalAddr().(*net.UDPAddr)
	return addr
}

var _ neko.Network = (*UDPNetwork)(nil)

// AddPeer registers a peer id and address at runtime. The id and the
// address must both be new: addresses identify senders, so two ids sharing
// one address would be indistinguishable on receive.
func (n *UDPNetwork) AddPeer(id neko.ProcessID, addr string) error {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %d %q: %w", id, addr, err)
	}
	ap := unmapAP(a.AddrPort())
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	return n.addPeerLocked(id, ap)
}

// addPeerLocked allocates the peer record and installs it in the id and
// address indexes. Callers hold peerMu in write mode (or, during
// construction, exclusive ownership).
func (n *UDPNetwork) addPeerLocked(id neko.ProcessID, ap netip.AddrPort) error {
	if _, dup := n.byID.Get(uint64(id)); dup {
		return fmt.Errorf("transport: peer %d already registered", id)
	}
	if other := n.lookupAddrLocked(ap); other != nil {
		return fmt.Errorf("transport: address %s already registered as peer %d", ap, other.id)
	}
	idx, ps := n.peerArena.Alloc()
	ps.id, ps.ap = id, ap
	n.byID.Put(uint64(id), idx)
	if k, ok := addrKey4(ap); ok {
		n.byAddr4.Put(k, idx)
	} else {
		k1, k2 := addrKey6(ap)
		n.byAddr6.Put(k1, k2, idx)
	}
	return nil
}

// RemovePeer deletes a peer registration (and any stored clock offset).
// Packets from its address are no longer attributed to the id. The arena
// record is freed and its generation bumped, so any index captured before
// the removal resolves to nil rather than a reused slot.
func (n *UDPNetwork) RemovePeer(id neko.ProcessID) error {
	n.peerMu.Lock()
	defer n.peerMu.Unlock()
	idx, ok := n.byID.Delete(uint64(id))
	if !ok {
		return fmt.Errorf("transport: unknown peer %d", id)
	}
	ps := n.peerArena.Get(idx)
	if k, ok := addrKey4(ps.ap); ok {
		n.byAddr4.Delete(k)
	} else {
		k1, k2 := addrKey6(ps.ap)
		n.byAddr6.Remove(k1, k2, func(i arena.Index) bool { return i == idx })
	}
	n.peerArena.Free(idx)
	return nil
}

// Peers returns the number of registered peers.
func (n *UDPNetwork) Peers() int {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.peerArena.Len()
}

// PeerTableStats reports the layout health of the peer structures: arena
// occupancy plus the open-addressed table stats for each index. Churn
// regression tests assert compaction returns these to baseline.
func (n *UDPNetwork) PeerTableStats() (arenaStats arena.Stats, byID, byAddr4, byAddr6 arena.TableStats) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	return n.peerArena.Stats(), n.byID.Stats(), n.byAddr4.Stats(), n.byAddr6.Stats()
}

// peerAddr returns a peer's socket address by value.
func (n *UDPNetwork) peerAddr(id neko.ProcessID) (netip.AddrPort, bool) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	if idx, ok := n.byID.Get(uint64(id)); ok {
		return n.peerArena.Get(idx).ap, true
	}
	return netip.AddrPort{}, false
}

// peerOffset returns the estimated clock offset stored for a peer.
func (n *UDPNetwork) peerOffset(id neko.ProcessID) (int64, bool) {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	if idx, ok := n.byID.Get(uint64(id)); ok {
		return n.peerArena.Get(idx).offset.Load(), true
	}
	return 0, false
}

// setPeerOffset stores a peer's estimated clock offset. The atomic store
// runs under the read lock: concurrent stores interleave safely, and the
// lock excludes RemovePeer's non-atomic record zeroing.
func (n *UDPNetwork) setPeerOffset(id neko.ProcessID, off int64) bool {
	n.peerMu.RLock()
	defer n.peerMu.RUnlock()
	if idx, ok := n.byID.Get(uint64(id)); ok {
		n.peerArena.Get(idx).offset.Store(off)
		return true
	}
	return false
}

// addrKey4 packs an unmapped IPv4 address and port into one map key word;
// ok is false for IPv6 endpoints, which use the two-word addrKey6.
func addrKey4(ap netip.AddrPort) (uint64, bool) {
	a := ap.Addr()
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 | uint64(b[3])<<16 |
		uint64(ap.Port()), true
}

// addrKey6 packs a 16-byte IPv6 address into the two table key words. The
// port does not fit the 128-bit key; lookups confirm it against the arena
// record, and same-address different-port peers coexist on one probe
// chain.
func addrKey6(ap netip.AddrPort) (k1, k2 uint64) {
	b := ap.Addr().As16()
	return binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
}

// lookupAddrLocked resolves a source address (already Unmap()ed) to its
// peer record, or nil. Callers hold peerMu in at least read mode; the
// returned pointer is valid only until the lock is released.
func (n *UDPNetwork) lookupAddrLocked(ap netip.AddrPort) *peerState {
	if k, ok := addrKey4(ap); ok {
		if idx, found := n.byAddr4.Get(k); found {
			return n.peerArena.Get(idx)
		}
		return nil
	}
	k1, k2 := addrKey6(ap)
	port := ap.Port()
	idx, found := n.byAddr6.Find(k1, k2, func(i arena.Index) bool {
		return n.peerArena.Get(i).ap.Port() == port
	})
	if found {
		return n.peerArena.Get(idx)
	}
	return nil
}

// Attach implements neko.Network for the configured local process.
func (n *UDPNetwork) Attach(id neko.ProcessID, r neko.Receiver) (neko.Sender, error) {
	if id != n.cfg.LocalID {
		return nil, fmt.Errorf("transport: endpoint is process %d, cannot attach %d", n.cfg.LocalID, id)
	}
	if r == nil {
		return nil, fmt.Errorf("transport: nil receiver")
	}
	if !n.attached.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("transport: process %d attached twice", id)
	}
	box := &receiverBox{r: r}
	box.tr, _ = r.(neko.TimedReceiver)
	box.br, _ = r.(neko.BatchReceiver)
	n.receiver.Store(box)
	return udpSender{n: n}, nil
}

type udpSender struct{ n *UDPNetwork }

// Send encodes on the caller's goroutine and hands the packet to the
// egress pipeline, which resolves and flushes it (one sendmmsg per batch).
func (s udpSender) Send(m *neko.Message) { s.n.enqueue(m) }

// handleTimeReq answers an NTP-style exchange: echo T1, add our receive
// (T2) and send (T3) wall-clock times.
func (n *UDPNetwork) handleTimeReq(m *neko.Message) {
	req, err := decodeTimeSync(m.Payload)
	if err != nil {
		return
	}
	t2 := n.wallNano()
	resp := &neko.Message{
		From: n.cfg.LocalID,
		To:   m.From,
		Type: MsgTimeResp,
		Seq:  m.Seq,
	}
	ap, ok := n.peerAddr(m.From)
	if !ok {
		return
	}
	resp.Payload = encodeTimeSync(timeSyncPayload{T1: req.T1, T2: t2, T3: n.wallNano()})
	buf, err := Encode(nil, resp, n.wallNano())
	if err != nil {
		return
	}
	if _, err := n.conn.WriteToUDPAddrPort(buf, ap); err != nil {
		n.sendErrors.Add(1)
		n.mSendErr.Inc()
	}
}

func (n *UDPNetwork) handleTimeResp(m *neko.Message) {
	p, err := decodeTimeSync(m.Payload)
	if err != nil {
		return
	}
	t4 := n.wallNano()
	n.mu.Lock()
	ch, ok := n.pending[m.Seq]
	if ok {
		delete(n.pending, m.Seq)
	}
	n.mu.Unlock()
	if !ok {
		return
	}
	ch <- clock.Sample{
		T1: time.Duration(p.T1),
		T2: time.Duration(p.T2),
		T3: time.Duration(p.T3),
		T4: time.Duration(t4),
	}
}

// SyncWith performs rounds of NTP-style exchanges with a peer, estimates
// the peer-minus-local clock offset using the minimum-delay filter, stores
// it for inbound timestamp correction, and returns it. Rounds that time out
// are skipped; at least one successful round is required.
func (n *UDPNetwork) SyncWith(peer neko.ProcessID, rounds int, timeout time.Duration) (time.Duration, error) {
	ap, ok := n.peerAddr(peer)
	if !ok {
		return 0, fmt.Errorf("transport: unknown peer %d", peer)
	}
	if rounds <= 0 {
		rounds = 8
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	var samples []clock.Sample
	for i := 0; i < rounds; i++ {
		n.mu.Lock()
		seq := n.nextSync
		n.nextSync++
		ch := make(chan clock.Sample, 1)
		n.pending[seq] = ch
		n.mu.Unlock()

		req := &neko.Message{
			From: n.cfg.LocalID,
			To:   peer,
			Type: MsgTimeReq,
			Seq:  seq,
			Payload: encodeTimeSync(timeSyncPayload{
				T1: n.wallNano(),
			}),
		}
		buf, err := Encode(nil, req, n.wallNano())
		if err != nil {
			return 0, err
		}
		if _, err := n.conn.WriteToUDPAddrPort(buf, ap); err != nil {
			return 0, fmt.Errorf("transport: sync send: %w", err)
		}
		timedOut := make(chan struct{})
		tmr := n.timers.AfterFunc(timeout, func() { close(timedOut) })
		select {
		case s := <-ch:
			tmr.Stop()
			samples = append(samples, s)
		case <-timedOut:
			n.mu.Lock()
			delete(n.pending, seq)
			n.mu.Unlock()
		case <-n.closed:
			tmr.Stop()
			return 0, fmt.Errorf("transport: endpoint closed during sync")
		}
	}
	if len(samples) == 0 {
		return 0, fmt.Errorf("transport: no sync responses from peer %d", peer)
	}
	off, err := clock.EstimateOffset(samples)
	if err != nil {
		return 0, err
	}
	if !n.setPeerOffset(peer, int64(off)) {
		return 0, fmt.Errorf("transport: peer %d removed during sync", peer)
	}
	return off, nil
}

// Offset returns the clock offset currently applied to the peer's inbound
// timestamps (0 before SyncWith).
func (n *UDPNetwork) Offset(peer neko.ProcessID) time.Duration {
	off, _ := n.peerOffset(peer)
	return time.Duration(off)
}

// Stats reports packets sent, valid packets received, and malformed packets
// discarded.
func (n *UDPNetwork) Stats() (sent, received, malformed uint64) {
	return n.sent.Load(), n.received.Load(), n.malformed.Load()
}

// SendErrors reports messages lost on the egress path: unencodable
// messages, write errors and short writes.
func (n *UDPNetwork) SendErrors() uint64 { return n.sendErrors.Load() }

// Close shuts down the pipelines and releases the socket.
func (n *UDPNetwork) Close() error {
	select {
	case <-n.closed:
		return nil
	default:
	}
	close(n.closed)
	n.timers.Close()
	err := n.conn.Close()
	for _, c := range n.extra {
		_ = c.Close()
	}
	n.wg.Wait()
	return err
}
